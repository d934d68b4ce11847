type config = {
  max_n : int;
  cmds : int;
  max_time : int;
  faults : Mcheck.Fuzz.fault_profile option;
  lifecycle : bool;
}

let default =
  {
    max_n = 6;
    cmds = 30;
    max_time = 400_000;
    faults = Some Mcheck.Fuzz.default_fault_profile;
    lifecycle = false;
  }

(* F_ack is drawn from [1, max_fack] and the crash pattern's size from
   [0, max_crashes]. *)
let max_fack = 6
let max_crashes = 2

type case = {
  n : int;
  fack : int;
  window : int;
  faults : Fault.plan;
  compact_every : int option;
  reconfigs : (int * int * int list) list;
}

let pp fmt (cx : (case, Smr_checker.violation) Mcheck.Campaign.counterexample)
    =
  let f = cx.case in
  Format.fprintf fmt
    "@[<v>iteration %d: n=%d fack=%d window=%d compact=%s@,\
     reconfigs=[%s]@,faults=%s@,%a@]"
    cx.iteration f.n f.fack f.window
    (match f.compact_every with
    | Some k -> string_of_int k
    | None -> "-")
    (String.concat "; "
       (List.map
          (fun (node, at, members) ->
            Printf.sprintf "%d@%d->{%s}" node at
              (String.concat "," (List.map string_of_int members)))
          f.reconfigs))
    (Fault.to_string f.faults)
    (Format.pp_print_list Smr_checker.pp_violation)
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
  let faults =
    Mcheck.Fuzz.gen_faults rng ~n ~fack
      ~crashes:
        (Mcheck.Campaign.early_crashes rng ~n ~fack ~max:max_crashes)
      config.faults
  in
  let window = 1 + Amac.Rng.int rng 8 in
  let mode =
    if Amac.Rng.bool rng then
      Workload.Open_loop { mean_gap = 1 + Amac.Rng.int rng (4 * fack) }
    else Workload.Closed_loop { clients_per_node = 1 }
  in
  (* Lifecycle surface: aggressive compaction watermarks and mid-run
     joint-consensus reconfigurations to arbitrary membership subsets,
     layered on top of the fault plan. Judged for safety only — a reconfig
     to a crashed subset legitimately stalls — which is exactly where
     epoch-crossing divergence or double-apply across a snapshot install
     would surface if the mechanisms were wrong. Off by default so the
     baseline fuzz corpus stays bit-for-bit. *)
  let compact_every, reconfigs =
    if not config.lifecycle then (None, [])
    else begin
      let compact_every =
        if Amac.Rng.int rng 3 < 2 then
          Some (Amac.Rng.int_range rng ~lo:3 ~hi:12)
        else None
      in
      let reconfig_count = Amac.Rng.int rng 3 in
      let reconfigs =
        List.init reconfig_count (fun _ ->
            let size = Amac.Rng.int_range rng ~lo:1 ~hi:n in
            let members =
              List.init size (fun _ -> Amac.Rng.int rng n)
              |> List.sort_uniq Int.compare
            in
            let node = Amac.Rng.int rng n in
            let at = Amac.Rng.int rng (max 1 (config.max_time / 64)) in
            (node, at, members))
      in
      (compact_every, reconfigs)
    end
  in
  let scheduler = Amac.Scheduler.random (Amac.Rng.split rng) ~fack in
  let wseed = Amac.Rng.int rng 1_000_000 in
  let result =
    Workload.run ~window ~faults ~max_time:config.max_time
      ?compact_every ~reconfigs ~topology ~scheduler ~seed:wseed
      ~cmds:config.cmds ~mode ()
  in
  ( { n; fack; window; faults; compact_every; reconfigs },
    result.Workload.violations )

let campaign config : (case, Smr_checker.violation) Mcheck.Campaign.t =
  { generate = generate config; shrink = None; pp }
