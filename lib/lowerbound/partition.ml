type analysis = {
  diameter : int;
  fack : int;
  lower_bound : int;
  endpoint_cross_influence : int;
  first_decision : int;
  last_decision : int;
  ratio : float;
  consensus_ok : bool;
}

(* A forward fold over the DAG in id (= recording) order, so every cause is
   folded before its effects. A node's origin set is its row of [first]:
   origin [o] is in it once [first.(node).(o) < max_int]. A [Broadcast]
   vertex freezes a copy of its sender's row (news the sender hears later
   must not ride a message already on the wire); a [Deliver] unions its
   broadcast's copy into the receiver's row, stamping each origin it brings
   for the first time. *)
let first_influence dag =
  let n = ref 0 in
  Obs.Provenance.iter (fun v -> n := max !n (v.Obs.Provenance.node + 1)) dag;
  let first = Array.make_matrix !n !n max_int in
  let carried = Array.make (Obs.Provenance.length dag) [||] in
  Obs.Provenance.iter
    (fun { Obs.Provenance.id; kind; node; time; cause } ->
      let row = first.(node) in
      match kind with
      | Obs.Provenance.Boot _ -> if row.(node) = max_int then row.(node) <- time
      | Obs.Provenance.Broadcast -> carried.(id) <- Array.copy row
      | Obs.Provenance.Deliver _ ->
          Array.iteri
            (fun origin t ->
              if t < max_int && row.(origin) = max_int then
                row.(origin) <- time)
            carried.(cause)
      | Obs.Provenance.Inject _ | Obs.Provenance.Ack | Obs.Provenance.Decide _
        ->
          ())
    dag;
  Array.map (Array.map (fun t -> if t = max_int then None else Some t)) first

let analyze ?(max_time = 10_000_000) algorithm ~diameter ~fack =
  let n = diameter + 1 in
  let topology = Amac.Topology.line n in
  let scheduler = Amac.Scheduler.max_delay ~fack in
  let inputs = Consensus.Runner.inputs_halves ~n in
  let provenance = Obs.Provenance.create () in
  let result =
    Consensus.Runner.run ~max_time ~provenance algorithm ~topology
      ~scheduler ~inputs
  in
  let first = first_influence provenance in
  (* Earliest time an endpoint hears (transitively) from the far half. *)
  let cross_for ~node ~far_half =
    List.fold_left
      (fun acc origin ->
        match first.(node).(origin) with Some t -> min acc t | None -> acc)
      max_int far_half
  in
  let far_for_0 = List.init (n - (n / 2)) (fun i -> (n / 2) + i) in
  let far_for_last = List.init (n / 2) (fun i -> i) in
  let endpoint_cross_influence =
    min (cross_for ~node:0 ~far_half:far_for_0)
      (cross_for ~node:(n - 1) ~far_half:far_for_last)
  in
  let times = Amac.Engine.decision_times result.outcome in
  (match times with
  | [] ->
      failwith
        (Printf.sprintf "Partition.analyze: %s never decided (D=%d, fack=%d)"
           algorithm.Amac.Algorithm.name diameter fack)
  | _ :: _ -> ());
  let first_decision = List.fold_left min max_int times in
  let last_decision = List.fold_left max 0 times in
  let lower_bound = diameter / 2 * fack in
  {
    diameter;
    fack;
    lower_bound;
    endpoint_cross_influence;
    first_decision;
    last_decision;
    ratio = float_of_int last_decision /. float_of_int (max 1 lower_bound);
    consensus_ok = Consensus.Checker.ok result.report;
  }
