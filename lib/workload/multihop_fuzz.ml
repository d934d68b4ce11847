type config = {
  max_fack : int;
  max_alpha : int;
  max_crashes : int;
  max_time : int;
  faults : Mcheck.Fuzz.fault_profile option;
}

let default =
  {
    max_fack = 4;
    max_alpha = 3;
    max_crashes = 2;
    max_time = 200_000;
    faults = Some Mcheck.Fuzz.default_fault_profile;
  }

type case = {
  spec : string;
  topo_seed : int;
  n : int;
  fack : int;
  alpha : int;
  cap : int option;
  deltas : int;
  crashes : (int * int) list;
  faults : Fault.plan;
}

let pp fmt
    (cx : (case, Consensus.Checker.violation) Mcheck.Campaign.counterexample)
    =
  let f = cx.case in
  Format.fprintf fmt
    "@[<v>iteration %d: %s seed=%d n=%d fack=%d alpha=%d cap=%s deltas=%d@,\
     crashes=[%s]@,faults=%s@,%a@]"
    cx.iteration f.spec f.topo_seed f.n f.fack f.alpha
    (match f.cap with Some c -> string_of_int c | None -> "default")
    f.deltas
    (String.concat "; "
       (List.map
          (fun (node, at) -> Printf.sprintf "%d@%d" node at)
          f.crashes))
    (Fault.to_string f.faults)
    (Format.pp_print_list ~pp_sep:Format.pp_print_space
       Consensus.Checker.pp_violation)
    cx.violations

(* Draws stay CI-sized: the point of this campaign is the interaction of
   multi-hop routing, contention-stretched acks, churn and fault plans —
   not raw scale, which bench B14 covers at 1000 nodes. *)
let gen_spec rng =
  match Amac.Rng.int rng 3 with
  | 0 ->
      Topo_gen.Grid
        {
          width = Amac.Rng.int_range rng ~lo:2 ~hi:5;
          height = Amac.Rng.int_range rng ~lo:2 ~hi:5;
        }
  | 1 ->
      let n = Amac.Rng.int_range rng ~lo:8 ~hi:24 in
      Topo_gen.Rgg { n; radius = Topo_gen.connectivity_radius ~n }
  | _ ->
      Topo_gen.Cluster
        {
          clusters = Amac.Rng.int_range rng ~lo:2 ~hi:4;
          size = Amac.Rng.int_range rng ~lo:3 ~hi:5;
          extra_bridges = Amac.Rng.int rng 3;
        }

let generate config rng =
  let spec = gen_spec rng in
  let topo_seed = Amac.Rng.int rng 1_000_000 in
  let topology = Topo_gen.generate ~seed:topo_seed spec in
  let n = Topo_gen.size spec in
  let fack = Amac.Rng.int_range rng ~lo:1 ~hi:(max 1 config.max_fack) in
  let alpha = Amac.Rng.int rng (config.max_alpha + 1) in
  let cap =
    if Amac.Rng.bool rng then None
    else Some (Amac.Rng.int_range rng ~lo:1 ~hi:(4 * fack))
  in
  (* Churn and mobility start after the first broadcast window so the run
     is past initialisation, with gaps on the same F_ack scale the fault
     generator uses. *)
  let topo_deltas =
    let start = 2 * fack and gap = max 1 (2 * fack) in
    match Amac.Rng.int rng 3 with
    | 0 -> []
    | 1 ->
        Topo_gen.churn ~seed:(Amac.Rng.int rng 1_000_000) topology
          ~events:(1 + Amac.Rng.int rng 4)
          ~start ~gap
    | _ ->
        Topo_gen.mobility ~seed:(Amac.Rng.int rng 1_000_000) topology
          ~moves:(1 + Amac.Rng.int rng 2)
          ~start ~gap
  in
  let crashes, faults =
    Mcheck.Fuzz.gen_faults rng ~n ~fack
      ~crashes:
        (Mcheck.Campaign.early_crashes rng ~n ~fack ~max:config.max_crashes)
      config.faults
  in
  let scheduler =
    Amac.Scheduler.interference ~alpha ?cap
      (Amac.Scheduler.random (Amac.Rng.split rng) ~fack)
  in
  let inputs = Consensus.Runner.inputs_random rng ~n in
  let result =
    Consensus.Runner.run
      (Consensus.Wpaxos.make ())
      ~topology ~scheduler ~inputs ~crashes ~faults ~topo_deltas
      ~max_time:config.max_time
  in
  ( {
      spec = Topo_gen.name spec;
      topo_seed;
      n;
      fack;
      alpha;
      cap;
      deltas = List.length topo_deltas;
      crashes;
      faults;
    },
    Consensus.Checker.safety_violations result.Consensus.Runner.report )

let campaign config : (case, Consensus.Checker.violation) Mcheck.Campaign.t =
  { generate = generate config; shrink = None; pp }
