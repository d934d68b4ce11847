(* Beyond the paper: the three future-work directions of Sec 5, plus the
   footnote-1 quorum knob and the Sec 2 multi-valued open problem.

     dune exec examples/beyond_the_paper.exe

   1. Randomized consensus (Ben-Or) survives the crash schedule that kills
      deterministic two-phase consensus (future work 3).
   2. The dual-graph model with unreliable links: safety is free, liveness
      is the open question (future work 1).
   3. wPAXOS with partial knowledge of n (footnote 1): a quorum above n/2
      suffices; one at or below n/2 splits the brain.
   4. Multi-valued consensus by bit-by-bit binary consensus (the Sec 2
      baseline reduction, with candidate adoption for validity). *)

let rule title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let () =
  rule "1. Randomness vs crashes (Ben-Or over the MAC layer)";
  let crash_plan = [ Fault.Crash { node = 2; at = 5 } ] in
  let inputs = [| 0; 1; 1 |] in
  let two_phase =
    Consensus.Runner.run Consensus.Two_phase.algorithm
      ~topology:(Amac.Topology.clique 3)
      ~scheduler:(Amac.Scheduler.fixed ~delay:4)
      ~inputs ~faults:crash_plan ~max_time:2_000
  in
  Printf.printf
    "two-phase, crash(node 2 @ t=5): termination=%b (blocked forever; \
     safety intact=%b)\n"
    two_phase.report.termination
    (Consensus.Checker.safe two_phase.report);
  let ben_or =
    Consensus.Runner.run
      (Consensus.Ben_or.make ~seed:11 ())
      ~topology:(Amac.Topology.clique 3)
      ~scheduler:(Amac.Scheduler.fixed ~delay:4)
      ~inputs ~faults:crash_plan ~max_time:200_000
  in
  Printf.printf "ben-or,   same crash: %s (t=%s)\n"
    (Format.asprintf "%a" Consensus.Checker.pp ben_or.report)
    (match ben_or.decision_time with Some t -> string_of_int t | None -> "-");

  rule "2. Unreliable links (the dual-graph model)";
  let n = 12 in
  let reliable = Amac.Topology.line n in
  let chords = Amac.Topology.of_edges ~n [ (0, 6); (2, 9); (4, 11); (1, 7) ] in
  List.iter
    (fun p ->
      let safe = ref 0 and ok = ref 0 in
      for seed = 1 to 10 do
        let scheduler =
          Amac.Scheduler.bernoulli_unreliable
            (Amac.Rng.create (seed + 40))
            ~p
            (Amac.Scheduler.random (Amac.Rng.create seed) ~fack:4)
        in
        let result =
          Consensus.Runner.run (Consensus.Wpaxos.make ()) ~topology:reliable
            ~scheduler ~unreliable:chords
            ~inputs:(Consensus.Runner.inputs_alternating ~n)
            ~max_time:100_000
        in
        if Consensus.Checker.safe result.report then incr safe;
        if Consensus.Checker.ok result.report then incr ok
      done;
      Printf.printf
        "wPAXOS on line-12 + 4 chords delivering with p=%.1f: safe %d/10, \
         fully live %d/10\n"
        p !safe !ok)
    [ 0.0; 0.3; 0.7 ];
  Printf.printf
    "(safety never breaks; liveness under flaky links is exactly the \
     question Sec 5 leaves open)\n";

  rule "3. Partial knowledge of n (footnote 1)";
  (* Two 5-cliques joined at their lowest-id nodes; partition the bridge. *)
  let edges = ref [ (0, 5) ] in
  for u = 0 to 4 do
    for v = u + 1 to 4 do
      edges := (u, v) :: (u + 5, v + 5) :: !edges
    done
  done;
  let topology = Amac.Topology.of_edges ~n:10 !edges in
  let inputs = Array.init 10 (fun i -> if i < 5 then 0 else 1) in
  let cut ~sender ~receiver =
    (sender = 0 && receiver = 5) || (sender = 5 && receiver = 0)
  in
  let scheduler = Amac.Scheduler.delayed_cut ~base_fack:2 ~until:5000 ~cut in
  List.iter
    (fun quorum ->
      let result =
        Consensus.Runner.run
          (Consensus.Wpaxos.make ~quorum ())
          ~topology ~scheduler ~inputs ~max_time:500_000
      in
      Printf.printf "quorum=%2d: agreement=%b decided={%s}\n" quorum
        result.report.agreement
        (String.concat ","
           (List.map string_of_int result.report.decided_values)))
    [ 4; 6; 8 ];
  Printf.printf
    "(4 <= n/2: the partitioned cliques each assemble a \"quorum\" and \
     split; >n/2 quorums always intersect)\n";

  rule "4. Multi-valued consensus, bit by bit (Sec 2's baseline reduction)";
  let inputs = [| 14; 11; 8; 5; 2 |] in
  let algorithm =
    Consensus.Multi_value.make ~bits:4 Consensus.Two_phase.algorithm
  in
  let result =
    Consensus.Runner.run algorithm ~give_n:false
      ~topology:(Amac.Topology.clique 5)
      ~scheduler:(Amac.Scheduler.random (Amac.Rng.create 2) ~fack:5)
      ~inputs ~max_time:500_000
  in
  Printf.printf "inputs {14,11,8,5,2}: %s at t=%s\n"
    (Format.asprintf "%a" Consensus.Checker.pp result.report)
    (match result.decision_time with Some t -> string_of_int t | None -> "-");
  Printf.printf
    "(naive bitwise agreement could decide e.g. 10 = 1010, nobody's input; \
     candidate adoption preserves validity)\n"
