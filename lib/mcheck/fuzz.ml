type topo_kind = Clique | Line | Ring | Star | Random_graph of int

type case = {
  kind : topo_kind;
  n : int;
  fack : int;
  inputs : int array;
  faults : Fault.plan;
  plan : Amac.Scheduler.decision list;
}

let kind_name = function
  | Clique -> "clique"
  | Line -> "line"
  | Ring -> "ring"
  | Star -> "star"
  | Random_graph seed -> Printf.sprintf "random(seed=%d)" seed

let pp_case fmt case =
  Format.fprintf fmt
    "@[<v>%s n=%d F_ack=%d@,inputs=[%s]@,plan=%d decisions@]"
    (kind_name case.kind) case.n case.fack
    (String.concat ";"
       (Array.to_list (Array.map string_of_int case.inputs)))
    (List.length case.plan);
  if case.faults <> [] then
    Format.fprintf fmt "@,faults:@,%a" Fault.pp case.faults

let topology_of case =
  match case.kind with
  | Clique -> Amac.Topology.clique case.n
  | Line -> Amac.Topology.line case.n
  | Ring -> Amac.Topology.ring case.n
  | Star -> Amac.Topology.star case.n
  | Random_graph seed ->
      Amac.Topology.random_connected
        (Amac.Rng.create seed)
        ~n:case.n ~extra_edges:(case.n / 3)

type fault_profile = {
  max_recoveries : int;
  max_loss_windows : int;
  max_partitions : int;
  max_stutters : int;
  max_window : int;
}

type config = {
  max_n : int;
  kinds : topo_kind list;
  check_termination : bool;
  max_time : int;
  faults : fault_profile option;
}

let default =
  {
    max_n = 6;
    kinds = [ Clique; Line ];
    check_termination = false;
    max_time = 100_000;
    faults = None;
  }

(* F_ack is drawn from [1, max_fack] and the crash pattern's size from
   [0, max_crashes]. *)
let max_fack = 8
let max_crashes = 2

let default_fault_profile =
  {
    max_recoveries = 2;
    max_loss_windows = 2;
    max_partitions = 1;
    max_stutters = 1;
    max_window = 40;
  }

let violations_of config (result : Consensus.Runner.result) =
  let safety = Consensus.Checker.safety_violations result.report in
  if
    config.check_termination
    && (not result.outcome.hit_max_time)
    && not result.report.termination
  then
    safety
    @ List.filter
        (function
          | Consensus.Checker.Termination_violation _ -> true | _ -> false)
        result.report.violations
  else safety

let run_case ?(record_trace = false) ?obs config algorithm (case : case) =
  Consensus.Runner.run algorithm ~topology:(topology_of case)
    ~scheduler:(Amac.Scheduler.replay case.plan)
    ~inputs:case.inputs ~faults:case.faults
    ~max_time:config.max_time ~record_trace ?obs

(* The plan gains recoveries for a prefix of the crashes, loss windows, a
   partition, stutters — each family built valid by construction (distinct
   edges/nodes, disjoint partition windows) and checked by Fault.validate
   before use. *)
let gen_fault_plan rng ~n ~fack ~crashes p =
  let horizon = ((2 * fack) + 1) * 4 in
  let window rng =
    let from_ = Amac.Rng.int rng horizon in
    let width = 1 + Amac.Rng.int rng (max 1 p.max_window) in
    (from_, from_ + width)
  in
  let recov_budget = Amac.Rng.int rng (p.max_recoveries + 1) in
  let recoveries =
    List.filteri (fun i _ -> i < recov_budget) (Fault.crashes crashes)
    |> List.map (fun (node, at) ->
           Fault.Recover { node; at = at + 1 + Amac.Rng.int rng horizon })
  in
  let rec draw_loss acc used k =
    if k = 0 then acc
    else
      let u = Amac.Rng.int rng n and v = Amac.Rng.int rng n in
      let e = if u < v then (u, v) else (v, u) in
      if u = v || List.mem e used then draw_loss acc used (k - 1)
      else
        let from_, until = window rng in
        draw_loss
          (Fault.Link_drop { edge = e; from_; until } :: acc)
          (e :: used) (k - 1)
  in
  let loss = draw_loss [] [] (Amac.Rng.int rng (p.max_loss_windows + 1)) in
  let rec place_partitions acc t k =
    if k = 0 then acc
    else
      let from_ = t + Amac.Rng.int rng horizon in
      let width = 1 + Amac.Rng.int rng (max 1 p.max_window) in
      let cut =
        List.filter (fun _ -> Amac.Rng.bool rng) (List.init n Fun.id)
      in
      let cut =
        match cut with
        | [] -> [ Amac.Rng.int rng n ]
        | cut when List.length cut = n -> List.tl cut
        | cut -> cut
      in
      place_partitions
        (Fault.Partition { cut; from_; until = from_ + width } :: acc)
        (from_ + width) (k - 1)
  in
  let partitions =
    if n < 2 then []
    else place_partitions [] 0 (Amac.Rng.int rng (p.max_partitions + 1))
  in
  let rec draw_stutters acc used k =
    if k = 0 then acc
    else
      let node = Amac.Rng.int rng n in
      if List.mem node used then draw_stutters acc used (k - 1)
      else
        let from_, until = window rng in
        draw_stutters
          (Fault.Stutter { node; from_; until } :: acc)
          (node :: used) (k - 1)
  in
  let stutters = draw_stutters [] [] (Amac.Rng.int rng (p.max_stutters + 1)) in
  let plan = crashes @ recoveries @ loss @ partitions @ stutters in
  Fault.validate ~n plan;
  plan

let gen_faults rng ~n ~fack ~crashes = function
  | None -> crashes
  | Some p -> gen_fault_plan rng ~n ~fack ~crashes p

let generate config algorithm rng =
  let n = Amac.Rng.int_range rng ~lo:2 ~hi:(max 2 config.max_n) in
  let kind =
    match Amac.Rng.pick rng config.kinds with
    | Random_graph _ -> Random_graph (Amac.Rng.int rng 1_000_000)
    | (Clique | Line | Ring | Star) as k -> k
  in
  let kind = if n < 3 && kind = Ring then Clique else kind in
  let fack = Amac.Rng.int_range rng ~lo:1 ~hi:max_fack in
  let inputs = Array.init n (fun _ -> if Amac.Rng.bool rng then 1 else 0) in
  let faults =
    gen_faults rng ~n ~fack
      ~crashes:(Campaign.early_crashes rng ~n ~fack ~max:max_crashes)
      config.faults
  in
  let base = Amac.Scheduler.random (Amac.Rng.split rng) ~fack in
  let recording, recorded = Amac.Scheduler.record base in
  let result =
    Consensus.Runner.run algorithm
      ~topology:
        (topology_of { kind; n; fack; inputs; faults; plan = [] })
      ~scheduler:recording ~inputs ~faults ~max_time:config.max_time
  in
  ( { kind; n; fack; inputs; faults; plan = recorded () },
    violations_of config result )

(* ---------------------------------------------------------------- *)
(* Shrinking: greedy delta-debugging over the case's four dimensions *)
(* ---------------------------------------------------------------- *)

let restrict_plan plan n' =
  List.filter_map
    (function
      | Fault.Crash { node; _ } as e -> if node < n' then Some e else None
      | Fault.Recover { node; _ } as e -> if node < n' then Some e else None
      | Fault.Link_drop { edge = u, v; _ } as e ->
          if u < n' && v < n' then Some e else None
      | Fault.Partition { cut; from_; until } ->
          let cut = List.filter (fun v -> v < n') cut in
          if cut <> [] && List.length cut < n' then
            Some (Fault.Partition { cut; from_; until })
          else None
      | Fault.Stutter { node; _ } as e -> if node < n' then Some e else None)
    plan

let restrict_to case n' =
  {
    case with
    n = n';
    inputs = Array.sub case.inputs 0 n';
    faults = restrict_plan case.faults n';
  }

(* Pull a fault event toward the trivial one: times toward 0, windows
   narrowed to width >= 1. [divisor = max_int] is the all-the-way jump. *)
let shrink_fault_event divisor = function
  | Fault.Crash { node; at } -> Fault.Crash { node; at = at / divisor }
  | Fault.Recover { node; at } -> Fault.Recover { node; at = at / divisor }
  | Fault.Link_drop { edge; from_; until } ->
      let width = max 1 ((until - from_) / divisor) in
      let from_ = from_ / divisor in
      Fault.Link_drop { edge; from_; until = from_ + width }
  | Fault.Partition { cut; from_; until } ->
      let width = max 1 ((until - from_) / divisor) in
      let from_ = from_ / divisor in
      Fault.Partition { cut; from_; until = from_ + width }
  | Fault.Stutter { node; from_; until } ->
      let width = max 1 ((until - from_) / divisor) in
      let from_ = from_ / divisor in
      Fault.Stutter { node; from_; until = from_ + width }

(* Smallest n that still fails, trying from 2 upward. *)
let pass_nodes case =
  List.filter_map
    (fun n' -> if n' < case.n then Some (restrict_to case n') else None)
    (List.init (max 0 (case.n - 2)) (fun i -> i + 2))

(* Drop each event; drop crash+recovery pairs together (a lone recovery is
   invalid and would be rejected, masking the shrink); narrow windows and
   pull times toward 0 (all-at-once, then halving); thin partition cuts.
   Any candidate the validator rejects is discarded by the shrinker. On a
   crash-only plan this is: drop each crash, then pull each toward 0. *)
let shrink_plan plan =
  let replace i e' = List.mapi (fun j e -> if i = j then e' else e) plan in
  let drops =
    List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) plan) plan
  in
  let recovers node =
    List.exists
      (function Fault.Recover { node = v; _ } -> v = node | _ -> false)
      plan
  in
  let drop_pairs =
    List.filter_map
      (function
        | Fault.Crash { node; _ } when recovers node ->
            Some
              (List.filter
                 (function
                   | Fault.Crash { node = v; _ } | Fault.Recover { node = v; _ }
                     ->
                       v <> node
                   | _ -> true)
                 plan)
        | _ -> None)
      plan
  in
  let narrowed divisor =
    List.mapi (fun i e -> replace i (shrink_fault_event divisor e)) plan
  in
  let cut_thinning =
    List.concat
      (List.mapi
         (fun i e ->
           match e with
           | Fault.Partition { cut; from_; until } when List.length cut > 1 ->
               List.map
                 (fun v ->
                   replace i
                     (Fault.Partition
                        { cut = List.filter (( <> ) v) cut; from_; until }))
                 cut
           | _ -> [])
         plan)
  in
  drops @ drop_pairs @ narrowed max_int @ narrowed 2 @ cut_thinning

let pp_counterexample pp_case ~timeline fmt (cx : _ Campaign.counterexample) =
  Format.fprintf fmt
    "@[<v>iteration %d:@,%a@,violations:@,  %a@,timeline:@,%s@]" cx.iteration
    pp_case cx.case
    (Format.pp_print_list ~pp_sep:Format.pp_print_space
       Consensus.Checker.pp_violation)
    cx.violations (timeline cx.case)

let campaign config algorithm : (case, Consensus.Checker.violation) Campaign.t =
  let replay case = violations_of config (run_case config algorithm case) in
  let timeline case =
    let replay = run_case ~record_trace:true config algorithm case in
    Amac.Trace.timeline ~n:case.n replay.outcome.trace
  in
  {
    generate = generate config algorithm;
    shrink =
      Some
        {
          replay;
          passes =
            [
              pass_nodes;
              (fun c ->
                List.map
                  (fun faults -> { c with faults })
                  (shrink_plan c.faults));
              (fun c ->
                List.map
                  (fun plan -> { c with plan })
                  (Campaign.truncations c.plan));
              (fun c ->
                List.map
                  (fun plan -> { c with plan })
                  (Campaign.flattenings c.plan));
              (fun c ->
                List.map
                  (fun inputs -> { c with inputs })
                  (Campaign.input_flips c.inputs));
            ];
        };
    pp = pp_counterexample pp_case ~timeline;
  }
