type case = {
  n : int;
  fack : int;
  inputs : int array;
  faults : Fault.plan;
  strategy : Model.strategy;
  plan : Amac.Scheduler.decision list;
}

let pp_case fmt case =
  Format.fprintf fmt "@[<v>clique n=%d F_ack=%d@,inputs=[%s]@,plan=%d decisions"
    case.n case.fack
    (String.concat ";" (Array.to_list (Array.map string_of_int case.inputs)))
    (List.length case.plan);
  if case.faults <> [] then
    Format.fprintf fmt "@,faults:@,%a" Fault.pp case.faults;
  Format.fprintf fmt "@,%a@]" Model.pp_strategy case.strategy

type config = {
  min_n : int;
  max_n : int;
  profile : Model.profile;
  cap_f : bool;
  agreement_only : bool;
  check_termination : bool;
  max_time : int;
}

let default =
  {
    min_n = 3;
    max_n = 6;
    profile = Model.default_profile;
    cap_f = false;
    agreement_only = false;
    check_termination = false;
    max_time = 100_000;
  }

(* F_ack is drawn from [1, max_fack]; a plan of at most [max_crashes]
   clean crashes lands on top of the strategy. *)
let max_fack = 6
let max_crashes = 1

let violations_of config (result : Consensus.Runner.result) =
  let safety = Consensus.Checker.safety_violations result.report in
  (* agreement_only: against a non-Byzantine-tolerant target, honest-input
     validity breaks degenerately (a Byzantine node's ordinary protocol
     participation already carries an "invalid" value, no attack needed).
     Demanding a split among HONEST decisions makes the found strategy
     earn its counterexample. *)
  let safety =
    if config.agreement_only then
      List.filter
        (function Consensus.Checker.Agreement_violation _ -> true | _ -> false)
        safety
    else safety
  in
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

(* Single-hop only: both follow-up papers' algorithms (and the attacks
   worth searching) live in cliques; multi-hop Byzantine routing is a
   different problem. *)
let run_case ?(record_trace = false) ?obs config algorithm adapter case =
  let wrapped =
    Model.wrap ~n:case.n ~adapter ~strategy:case.strategy algorithm
  in
  Consensus.Runner.run wrapped.Model.algorithm
    ~topology:(Amac.Topology.clique case.n)
    ~scheduler:(Amac.Scheduler.replay case.plan)
    ~inputs:case.inputs ~faults:case.faults
    ~substitute:wrapped.Model.substitute ~honest:wrapped.Model.honest
    ~max_time:config.max_time ~record_trace ?obs

let generate config algorithm adapter rng =
  let n =
    Amac.Rng.int_range rng ~lo:(max 2 config.min_n)
      ~hi:(max config.min_n config.max_n)
  in
  let fack = Amac.Rng.int_range rng ~lo:1 ~hi:max_fack in
  let inputs = Array.init n (fun _ -> if Amac.Rng.bool rng then 1 else 0) in
  (* cap_f: stay inside the algorithm's advertised tolerance — a campaign
     against an f-resilient protocol that spawns f+1 Byzantine nodes finds
     "violations" that indict nobody. *)
  let profile =
    if config.cap_f then
      { config.profile with Model.max_byz = min config.profile.Model.max_byz ((n - 1) / 3) }
    else config.profile
  in
  let strategy = Model.gen_strategy rng ~n ~fack profile in
  (* Mixed regime: clean crashes can land on honest AND Byzantine nodes —
     a crashed Byzantine node is an adversary that went permanently
     silent, which is itself a strategy worth searching. *)
  let faults = Mcheck.Campaign.early_crashes rng ~n ~fack ~max:max_crashes in
  let wrapped = Model.wrap ~n ~adapter ~strategy algorithm in
  let base = Amac.Scheduler.random (Amac.Rng.split rng) ~fack in
  let recording, recorded = Amac.Scheduler.record base in
  let result =
    Consensus.Runner.run wrapped.Model.algorithm
      ~topology:(Amac.Topology.clique n) ~scheduler:recording ~inputs ~faults
      ~substitute:wrapped.Model.substitute ~honest:wrapped.Model.honest
      ~max_time:config.max_time
  in
  ( { n; fack; inputs; faults; strategy; plan = recorded () },
    violations_of config result )

(* ---------------------------------------------------------------- *)
(* Shrinking: Fuzz's delta-debugging passes plus strategy passes     *)
(* ---------------------------------------------------------------- *)

let restrict_strategy (s : Model.strategy) n' =
  let byz = List.filter (fun (node, _) -> node < n') s.Model.byz in
  let keep = List.map fst byz in
  let tampers =
    List.filter_map
      (fun (t : Model.tamper) ->
        if not (List.mem t.Model.node keep) then None
        else
          match List.filter (fun v -> v < n') t.Model.victims with
          | [] -> None
          | victims -> Some { t with Model.victims })
      s.Model.tampers
  in
  { s with Model.byz; tampers }

let restrict_to case n' =
  {
    case with
    n = n';
    inputs = Array.sub case.inputs 0 n';
    faults = Mcheck.Fuzz.restrict_plan case.faults n';
    strategy = restrict_strategy case.strategy n';
  }

let pass_nodes case =
  List.filter_map
    (fun n' -> if n' < case.n then Some (restrict_to case n') else None)
    (List.init (max 0 (case.n - 2)) (fun i -> i + 2))

let with_strategy case s = { case with strategy = s }

let pass_tampers case =
  let s = case.strategy in
  List.mapi
    (fun i _ ->
      with_strategy case
        { s with Model.tampers = List.filteri (fun j _ -> j <> i) s.Model.tampers })
    s.Model.tampers

(* Pull tamper windows toward the trivial one: all the way to [0,1), then
   halved. *)
let pass_windows case =
  let s = case.strategy in
  let narrowed divisor =
    List.mapi
      (fun i (t : Model.tamper) ->
        let width = max 1 ((t.Model.until - t.Model.from_) / divisor) in
        let from_ = t.Model.from_ / divisor in
        with_strategy case
          {
            s with
            Model.tampers =
              List.mapi
                (fun j t' ->
                  if i = j then { t with Model.from_; until = from_ + width }
                  else t')
                s.Model.tampers;
          })
      s.Model.tampers
  in
  narrowed max_int @ narrowed 2

let pass_victims case =
  let s = case.strategy in
  List.concat
    (List.mapi
       (fun i (t : Model.tamper) ->
         if List.length t.Model.victims <= 1 then []
         else
           List.map
             (fun v ->
               with_strategy case
                 {
                   s with
                   Model.tampers =
                     List.mapi
                       (fun j t' ->
                         if i = j then
                           {
                             t with
                             Model.victims =
                               List.filter (( <> ) v) t.Model.victims;
                           }
                         else t')
                       s.Model.tampers;
                 })
             t.Model.victims)
       s.Model.tampers)

(* Quiet each Byzantine node's local behavior — all arms at once, then one
   arm at a time: an arm that survives zeroing was not load-bearing. *)
let pass_behaviors case =
  let s = case.strategy in
  let replace i b' =
    with_strategy case
      {
        s with
        Model.byz =
          List.mapi
            (fun j (node, b) -> if i = j then (node, b') else (node, b))
            s.Model.byz;
      }
  in
  List.concat
    (List.mapi
       (fun i (_, (b : Model.behavior)) ->
         (if b = Model.honest_behavior then []
          else [ replace i Model.honest_behavior ])
         @ (if b.Model.replay_period <> 0 then
              [ replace i { b with Model.replay_period = 0 } ]
            else [])
         @ (if b.Model.forge_period <> 0 then
              [ replace i { b with Model.forge_period = 0 } ]
            else [])
         @
         if b.Model.drop_own then [ replace i { b with Model.drop_own = false } ]
         else [])
       s.Model.byz)

let pass_byz_nodes case =
  let s = case.strategy in
  List.map
    (fun (node, _) ->
      with_strategy case
        {
          s with
          Model.byz = List.filter (fun (v, _) -> v <> node) s.Model.byz;
          tampers =
            List.filter
              (fun (t : Model.tamper) -> t.Model.node <> node)
              s.Model.tampers;
        })
    s.Model.byz

let campaign config algorithm adapter :
    (case, Consensus.Checker.violation) Mcheck.Campaign.t =
  let replay case =
    violations_of config (run_case config algorithm adapter case)
  in
  let timeline case =
    let replay = run_case ~record_trace:true config algorithm adapter case in
    Amac.Trace.timeline ~n:case.n replay.outcome.trace
  in
  {
    generate = generate config algorithm adapter;
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
                  (Mcheck.Fuzz.shrink_plan c.faults));
              pass_byz_nodes;
              pass_tampers;
              pass_victims;
              pass_windows;
              pass_behaviors;
              (fun c ->
                List.map
                  (fun plan -> { c with plan })
                  (Mcheck.Campaign.truncations c.plan));
              (fun c ->
                List.map
                  (fun plan -> { c with plan })
                  (Mcheck.Campaign.flattenings c.plan));
              (fun c ->
                List.map
                  (fun inputs -> { c with inputs })
                  (Mcheck.Campaign.input_flips c.inputs));
            ];
        };
    pp = Mcheck.Fuzz.pp_counterexample pp_case ~timeline;
  }
