type config = {
  max_n : int;
  max_fack : int;
  max_groups : int;
  max_batch : int;
  max_crashes : int;
  cmds : int;
  max_time : int;
}

let default =
  {
    max_n = 6;
    max_fack = 6;
    max_groups = 4;
    max_batch = 6;
    max_crashes = 2;
    cmds = 40;
    max_time = 400_000;
  }

type case = {
  n : int;
  fack : int;
  groups : int;
  batch : int;
  window : int;
  crashes : (int * int) list;
}

let pp fmt
    (cx : (case, Smr_checker.shard_violation) Mcheck.Campaign.counterexample) =
  let f = cx.case in
  Format.fprintf fmt
    "@[<v>iteration %d: n=%d fack=%d groups=%d batch=%d window=%d@,\
     crashes=[%s]@,%a@]"
    cx.iteration f.n f.fack f.groups f.batch f.window
    (String.concat "; "
       (List.map
          (fun (node, at) -> Printf.sprintf "%d@%d" node at)
          f.crashes))
    (Format.pp_print_list Smr_checker.pp_shard_violation)
    cx.violations

let generate config rng =
  let n = Amac.Rng.int_range rng ~lo:3 ~hi:(max 3 config.max_n) in
  let topology =
    match Amac.Rng.int rng 3 with
    | 0 -> Amac.Topology.clique n
    | 1 -> Amac.Topology.line n
    | _ -> if n >= 3 then Amac.Topology.ring n else Amac.Topology.clique n
  in
  let fack = Amac.Rng.int_range rng ~lo:1 ~hi:(max 1 config.max_fack) in
  let groups = Amac.Rng.int_range rng ~lo:1 ~hi:(max 1 config.max_groups) in
  let batch = Amac.Rng.int_range rng ~lo:1 ~hi:(max 1 config.max_batch) in
  let window = 1 + Amac.Rng.int rng 8 in
  let crashes =
    Mcheck.Campaign.early_crashes rng ~n ~fack ~max:config.max_crashes
  in
  let scheduler = Amac.Scheduler.random (Amac.Rng.split rng) ~fack in
  let wseed = Amac.Rng.int rng 1_000_000 in
  let result =
    Shard_workload.run ~window ~batch ~crashes ~max_time:config.max_time
      ~mean_gap:(1 + Amac.Rng.int rng (4 * fack))
      ~key_space:(8 * groups)
      ~topology ~scheduler ~seed:wseed ~cmds:config.cmds ~groups ()
  in
  ( { n; fack; groups; batch; window; crashes },
    result.Shard_workload.violations )

let campaign config : (case, Smr_checker.shard_violation) Mcheck.Campaign.t =
  { generate = generate config; shrink = None; pp }
