type config = {
  max_n : int;
  cmds : int;
  max_time : int;
}

let default =
  {
    max_n = 6;
    cmds = 40;
    max_time = 400_000;
  }

(* F_ack, the group count and the batch threshold are drawn from
   [1, max_*]; the crash pattern's size from [0, max_crashes]. *)
let max_fack = 6
let max_groups = 4
let max_batch = 6
let max_crashes = 2

type case = {
  n : int;
  fack : int;
  groups : int;
  batch : int;
  window : int;
  faults : Fault.plan;
}

let pp fmt
    (cx : (case, Smr_checker.shard_violation) Mcheck.Campaign.counterexample) =
  let f = cx.case in
  Format.fprintf fmt
    "@[<v>iteration %d: n=%d fack=%d groups=%d batch=%d window=%d@,\
     faults=%s@,%a@]"
    cx.iteration f.n f.fack f.groups f.batch f.window
    (Fault.to_string f.faults)
    (Format.pp_print_list Smr_checker.pp_shard_violation)
    cx.violations

let generate config rng =
  let n = Amac.Rng.int_range rng ~lo:3 ~hi:(max 3 config.max_n) in
  let topology =
    match Amac.Rng.int rng 3 with
    | 0 -> Amac.Topology.clique n
    | 1 -> Amac.Topology.line n
    | _ -> Amac.Topology.ring n
  in
  let fack = Amac.Rng.int_range rng ~lo:1 ~hi:max_fack in
  let groups = Amac.Rng.int_range rng ~lo:1 ~hi:max_groups in
  let batch = Amac.Rng.int_range rng ~lo:1 ~hi:max_batch in
  let window = 1 + Amac.Rng.int rng 8 in
  let faults = Mcheck.Campaign.early_crashes rng ~n ~fack ~max:max_crashes in
  let scheduler = Amac.Scheduler.random (Amac.Rng.split rng) ~fack in
  let wseed = Amac.Rng.int rng 1_000_000 in
  let result =
    Shard_workload.run ~window ~batch ~faults ~max_time:config.max_time
      ~mean_gap:(1 + Amac.Rng.int rng (4 * fack))
      ~key_space:(8 * groups)
      ~topology ~scheduler ~seed:wseed ~cmds:config.cmds ~groups ()
  in
  ( { n; fack; groups; batch; window; faults },
    result.Shard_workload.violations )

let campaign config : (case, Smr_checker.shard_violation) Mcheck.Campaign.t =
  { generate = generate config; shrink = None; pp }
