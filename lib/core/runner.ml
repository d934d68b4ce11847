type result = {
  outcome : Amac.Engine.outcome;
  report : Checker.report;
  degradation : Checker.degradation;
  decision_time : int option;
}

(* Verdict-level metrics: the checker's degradation view (safety as a 0/1
   gauge, liveness as measured quantities), labelled by algorithm so sweeps
   over several algorithms into one registry stay separable. *)
let record_degradation ~obs ~algorithm (degradation : Checker.degradation) =
  let gauge name = Obs.Metrics.gauge obs ~labels:[ ("algorithm", algorithm) ] name in
  Obs.Metrics.set (gauge "checker_safe")
    (if degradation.Checker.safe then 1.0 else 0.0);
  Obs.Metrics.set
    (gauge "checker_decided_fraction")
    degradation.Checker.decided_fraction;
  Obs.Metrics.set
    (gauge "checker_max_incarnation")
    (float_of_int degradation.Checker.max_incarnation);
  match degradation.Checker.max_decide_time with
  | Some t -> Obs.Metrics.set (gauge "checker_max_decide_time") (float_of_int t)
  | None -> ()

let run ?identities ?give_n ?give_diameter ?faults ?substitute ?honest
    ?max_time ?provenance ?record_trace ?pp_msg ?unreliable ?topo_deltas ?obs
    algorithm ~topology ~scheduler ~inputs =
  let faults = Option.value faults ~default:[] in
  let compiled = Fault.compile ~n:(Amac.Topology.size topology) faults in
  Option.iter (fun obs -> Fault.record ~obs faults) obs;
  let outcome =
    Amac.Engine.run ?identities ?give_n ?give_diameter
      ~crashes:compiled.Fault.crashes ~recoveries:compiled.Fault.recoveries
      ?drop:compiled.Fault.drop ?stutter:compiled.Fault.stutter ?substitute
      ?max_time ?provenance ?record_trace ?pp_msg ?unreliable ?topo_deltas ?obs
      algorithm ~topology ~scheduler ~inputs
  in
  let report = Checker.check ?honest ~inputs outcome in
  let degradation = Checker.degrade ?honest report outcome in
  (match obs with
  | Some reg ->
      record_degradation ~obs:reg ~algorithm:algorithm.Amac.Algorithm.name
        degradation
  | None -> ());
  {
    outcome;
    report;
    degradation;
    decision_time = Amac.Engine.latest_decision outcome;
  }

let inputs_all ~n v = Array.make n v

let inputs_alternating ~n = Array.init n (fun i -> i mod 2)

let inputs_random rng ~n =
  Array.init n (fun _ -> if Amac.Rng.bool rng then 1 else 0)

let inputs_halves ~n = Array.init n (fun i -> if i < n / 2 then 0 else 1)
