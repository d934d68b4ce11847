(* The experiment harness: one table per paper claim (see DESIGN.md's
   experiment index, E1-E9), plus bechamel micro-benchmarks of the
   simulator core (B1-B4).

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- --only E3    # one experiment
     dune exec bench/main.exe -- --quick      # reduced sweeps
     dune exec bench/main.exe -- --skip-bechamel

   The paper is theory: its "evaluation" is a set of theorems whose figures
   are constructions. Each experiment reruns the construction and prints a
   table certifying the claimed *shape* (who wins, what scales with what,
   where the violation appears); EXPERIMENTS.md records these tables against
   the paper's claims.

   Every run also writes BENCH.json in the current directory: a
   machine-readable mirror of each printed table (same cells, via
   Stats.Table.to_json) plus attached metadata and raw measurement series
   for the sweeps that have them — the per-PR perf-trajectory record
   (BENCH_PR3.json is the first committed snapshot). *)

let quick = ref false

let every_row fmt = Printf.sprintf fmt

let latency_of (result : Consensus.Runner.result) =
  match result.decision_time with
  | Some t -> string_of_int t
  | None -> "never"

let ok_of (result : Consensus.Runner.result) =
  if Consensus.Checker.ok result.report then "yes" else "VIOLATED"

(* ------------------------------------------------------------------ *)
(* E1 - Thm 4.1: two-phase is O(F_ack) in single hop, no knowledge of n *)
(* ------------------------------------------------------------------ *)

let e1 () =
  let table =
    Stats.Table.create
      ~title:
        "E1 (Thm 4.1) two-phase consensus: latency vs n, single hop, F_ack=8"
      ~columns:
        [ "n"; "sync"; "random (5 seeds)"; "max-delay"; "<=3*F_ack"; "ok" ]
  in
  let fack = 8 in
  Stats.Table.set_meta table "fack" (string_of_int fack);
  Stats.Table.set_meta table "seeds" "1..5";
  let sizes =
    if !quick then [ 2; 8; 32 ] else [ 2; 4; 8; 16; 32; 64; 128; 256 ]
  in
  List.iter
    (fun n ->
      let topology = Amac.Topology.clique n in
      let inputs = Consensus.Runner.inputs_alternating ~n in
      let run scheduler =
        Consensus.Runner.run Consensus.Two_phase.algorithm ~give_n:false
          ~topology ~scheduler ~inputs
      in
      let sync = run Amac.Scheduler.synchronous in
      let maxd = run (Amac.Scheduler.max_delay ~fack) in
      let randoms =
        List.map
          (fun seed -> run (Amac.Scheduler.random (Amac.Rng.create seed) ~fack))
          [ 1; 2; 3; 4; 5 ]
      in
      let times =
        List.map
          (fun r -> float_of_int (Option.get r.Consensus.Runner.decision_time))
          randoms
      in
      let all_ok =
        List.for_all
          (fun r -> Consensus.Checker.ok r.Consensus.Runner.report)
          (sync :: maxd :: randoms)
      in
      let worst =
        max
          (int_of_float (Stats.maximum times))
          (Option.get maxd.decision_time)
      in
      Stats.Table.add_series table
        ~name:(every_row "random_latency_n%d" n)
        times;
      Stats.Table.add_row table
        [
          string_of_int n;
          latency_of sync;
          every_row "%.0f..%.0f" (Stats.minimum times)
            (Stats.maximum times);
          latency_of maxd;
          (if worst <= 3 * fack then "yes" else "NO");
          (if all_ok then "yes" else "VIOLATED");
        ])
    sizes;
  Stats.Table.add_note table
    "latency is flat in n and bounded by 3*F_ack = 24 (paper: O(F_ack));";
  Stats.Table.add_note table
    "the algorithm is never told n (impossible without acks, Abboud et al.).";
  table

(* ------------------------------------------------------------------ *)
(* E2 - Thm 4.6: wPAXOS is O(D * F_ack) in multihop networks           *)
(* ------------------------------------------------------------------ *)

let e2 () =
  let fack = 3 in
  let table =
    Stats.Table.create
      ~title:"E2 (Thm 4.6) wPAXOS: latency vs diameter, F_ack=3"
      ~columns:[ "topology"; "n"; "D"; "latency"; "latency/(D*F_ack)"; "ok" ]
  in
  let cases =
    let lines = if !quick then [ 4; 16 ] else [ 2; 4; 8; 16; 32; 48 ] in
    List.map
      (fun d -> (Printf.sprintf "line:%d" (d + 1), Amac.Topology.line (d + 1)))
      lines
    @ [
        ("grid:5x5", Amac.Topology.grid ~width:5 ~height:5);
        ("grid:8x8", Amac.Topology.grid ~width:8 ~height:8);
        ("tree:31", Amac.Topology.binary_tree 31);
        ("ring:24", Amac.Topology.ring 24);
      ]
  in
  List.iter
    (fun (name, topology) ->
      let n = Amac.Topology.size topology in
      let d = Amac.Topology.diameter topology in
      let result =
        Consensus.Runner.run (Consensus.Wpaxos.make ()) ~topology
          ~scheduler:(Amac.Scheduler.fixed ~delay:fack)
          ~inputs:(Consensus.Runner.inputs_alternating ~n)
          ~max_time:5_000_000
      in
      let t = Option.get result.decision_time in
      Stats.Table.add_row table
        [
          name;
          string_of_int n;
          string_of_int d;
          string_of_int t;
          every_row "%.1f" (float_of_int t /. float_of_int (max 1 (d * fack)));
          ok_of result;
        ])
    cases;
  Stats.Table.add_note table
    "latency/(D*F_ack) stays a small constant as D grows: O(D*F_ack), \
     matching the Thm 3.10 lower bound up to a constant.";
  table

(* ------------------------------------------------------------------ *)
(* E3 - Sec 4.2 motivation: wPAXOS vs naive flooding, fixed D, rising n *)
(* ------------------------------------------------------------------ *)

let e3 () =
  let fack = 2 and arm_len = 4 in
  let table =
    Stats.Table.create
      ~title:
        "E3 (Sec 4.2) latency on star-of-lines (D=8 fixed, n grows), F_ack=2"
      ~columns:[ "n"; "wPAXOS"; "flood-gather"; "flood-paxos"; "gather/wpaxos" ]
  in
  let arms_list = if !quick then [ 2; 8 ] else [ 2; 4; 8; 16; 32 ] in
  List.iter
    (fun arms ->
      let topology = Amac.Topology.star_of_lines ~arms ~arm_len in
      let n = Amac.Topology.size topology in
      let inputs = Consensus.Runner.inputs_alternating ~n in
      let scheduler = Amac.Scheduler.fixed ~delay:fack in
      let time algorithm =
        let result =
          Consensus.Runner.run algorithm ~topology ~scheduler ~inputs
            ~max_time:5_000_000
        in
        assert (Consensus.Checker.ok result.report);
        Option.get result.decision_time
      in
      let wp = time (Consensus.Wpaxos.make ()) in
      let fg = time (Consensus.Flood_gather.make ()) in
      let fp = time (Consensus.Flood_paxos.make ()) in
      Stats.Table.add_row table
        [
          string_of_int n;
          string_of_int wp;
          string_of_int fg;
          string_of_int fp;
          every_row "%.1fx" (float_of_int fg /. float_of_int wp);
        ])
    arms_list;
  Stats.Table.add_note table
    "wPAXOS stays ~flat (O(D*F_ack)); both flooding baselines grow with n \
     (Theta(n*F_ack) hub bottleneck) - the crossover the paper predicts.";
  table

(* ------------------------------------------------------------------ *)
(* E4 - Thm 3.10: no decision before floor(D/2)*F_ack                  *)
(* ------------------------------------------------------------------ *)

let e4 () =
  let table =
    Stats.Table.create
      ~title:
        "E4 (Thm 3.10) lines under the max-delay adversary: causal bound vs \
         wPAXOS"
      ~columns:
        [
          "D";
          "F_ack";
          "bound=floor(D/2)*F";
          "earliest cross-influence";
          "first decision";
          "last decision";
          "last/bound";
        ]
  in
  let cases =
    if !quick then [ (4, 3); (16, 2) ]
    else [ (4, 3); (8, 2); (8, 5); (16, 2); (24, 3); (32, 2) ]
  in
  List.iter
    (fun (diameter, fack) ->
      let a =
        Lowerbound.Partition.analyze (Consensus.Wpaxos.make ()) ~diameter ~fack
      in
      Stats.Table.add_row table
        [
          string_of_int diameter;
          string_of_int fack;
          string_of_int a.lower_bound;
          string_of_int a.endpoint_cross_influence;
          string_of_int a.first_decision;
          string_of_int a.last_decision;
          every_row "%.1f" a.ratio;
        ])
    cases;
  Stats.Table.add_note table
    "cross-influence = bound exactly (information moves one hop per F_ack);";
  Stats.Table.add_note table
    "wPAXOS decides after the bound with a ~constant factor: both bounds are \
     tight.";
  table

(* ------------------------------------------------------------------ *)
(* E5 - Thm 3.3 / Fig 1: anonymity makes consensus impossible           *)
(* ------------------------------------------------------------------ *)

let e5 () =
  let table =
    Stats.Table.create
      ~title:"E5 (Thm 3.3, Fig 1) anonymous min-flooding on networks A and B"
      ~columns:
        [
          "D";
          "n'";
          "ok on B (both inputs)";
          "B decide time";
          "A0 decides";
          "A1 decides";
          "agreement on A";
        ]
  in
  let cases =
    if !quick then [ (10, 24) ] else [ (10, 24); (12, 45); (16, 60) ]
  in
  List.iter
    (fun (diameter, n) ->
      let f = Lowerbound.Indist.fig1_demo ~diameter ~n in
      Stats.Table.add_row table
        [
          string_of_int diameter;
          string_of_int (Amac.Topology.size f.instance.network_a);
          (if f.b_ok then "yes" else "NO");
          every_row "%d/%d" f.b_decide_time_0 f.b_decide_time_1;
          String.concat "," (List.map string_of_int f.a0_values);
          String.concat "," (List.map string_of_int f.a1_values);
          (if f.a_report.agreement then "held?!" else "VIOLATED");
        ])
    cases;
  Stats.Table.add_note table
    "same algorithm, same knowledge (n', D): correct on B, split-brained on \
     A - anonymity is fatal (Claim 3.4 sizes/diameters verified in tests).";
  table

(* ------------------------------------------------------------------ *)
(* E6 - Thm 3.9 / Fig 2: no knowledge of n is fatal in multihop         *)
(* ------------------------------------------------------------------ *)

let e6 () =
  let table =
    Stats.Table.create
      ~title:"E6 (Thm 3.9, Fig 2) id-using, D-knowing, n-less flooding on K_D"
      ~columns:
        [
          "D";
          "|K_D|";
          "ok on line L_D";
          "L1 decides";
          "L2 decides";
          "agreement on K_D";
        ]
  in
  let cases = if !quick then [ 6 ] else [ 3; 6; 10; 14 ] in
  List.iter
    (fun diameter ->
      let k = Lowerbound.Indist.kd_demo ~diameter in
      Stats.Table.add_row table
        [
          string_of_int diameter;
          string_of_int (Amac.Topology.size k.kd.topology);
          (if k.line_ok then "yes" else "NO");
          String.concat "," (List.map string_of_int k.l1_values);
          String.concat "," (List.map string_of_int k.l2_values);
          (if k.kd_report.agreement then "held?!" else "VIOLATED");
        ])
    cases;
  Stats.Table.add_note table
    "K_D has diameter D, same as the standalone line the victim is correct \
     on; with the endpoint silenced, both L_D copies decide their own value.";
  table

(* ------------------------------------------------------------------ *)
(* E7 - Thm 3.2 / Sec 3.1: FLP in the abstract MAC layer model          *)
(* ------------------------------------------------------------------ *)

let e7 () =
  let table =
    Stats.Table.create
      ~title:"E7 (Thm 3.2) valid-step exploration of two-phase on the 3-clique"
      ~columns:[ "inputs"; "initial valency"; "note" ]
  in
  let verdict inputs =
    let t =
      Lowerbound.Bivalence.create Consensus.Two_phase.algorithm
        ~topology:(Amac.Topology.clique 3)
        ~inputs
    in
    match Lowerbound.Bivalence.initial_verdict t with
    | Lowerbound.Bivalence.Univalent v -> Printf.sprintf "univalent(%d)" v
    | Lowerbound.Bivalence.Bivalent -> "bivalent"
    | Lowerbound.Bivalence.Blocked -> "blocked"
  in
  List.iter
    (fun inputs ->
      let label =
        String.concat "" (Array.to_list (Array.map string_of_int inputs))
      in
      let note =
        if Array.for_all (fun v -> v = inputs.(0)) inputs then
          "unanimity: validity pins the outcome"
        else "mixed inputs: bivalent initial configuration exists (FLP Lem 2)"
      in
      Stats.Table.add_row table [ label; verdict inputs; note ])
    [ [| 0; 0; 0 |]; [| 0; 0; 1 |]; [| 0; 1; 1 |]; [| 1; 1; 1 |] ];
  let t =
    Lowerbound.Bivalence.create Consensus.Two_phase.algorithm
      ~topology:(Amac.Topology.clique 3)
      ~inputs:[| 0; 1; 1 |]
  in
  let stats = Lowerbound.Bivalence.explore t ~max_depth:8 in
  Stats.Table.add_note table
    (every_row
       "crash-free exploration: %d distinct configs to depth 8; bivalence \
        persists to depth %d then dies (two-phase terminates without crashes)"
       stats.total_configs stats.deepest_bivalent);
  (match
     Lowerbound.Bivalence.find_termination_violation t ~max_crashes:1
       ~max_depth:25 ()
   with
  | Some schedule ->
      Stats.Table.add_note table
        (every_row
           "1 crash: found a %d-step schedule after which a live node waits \
            forever - termination dies (Thm 3.2)"
           (List.length schedule))
  | None -> Stats.Table.add_note table "1 crash: no violation found (?!)");
  (match
     Lowerbound.Bivalence.find_agreement_violation t ~max_crashes:1
       ~max_depth:20
       ~max_configs:(if !quick then 20_000 else 100_000)
       ()
   with
  | None ->
      Stats.Table.add_note table
        "1 crash: no agreement violation in bounded-exhaustive search - the \
         crash kills liveness, not safety"
  | Some _ ->
      Stats.Table.add_note table "1 crash: AGREEMENT VIOLATION (bug!)");
  table

(* ------------------------------------------------------------------ *)
(* E8 - model constraint + Lemma 4.4: O(1) ids/message, poly(n) tags    *)
(* ------------------------------------------------------------------ *)

let e8 () =
  let table =
    Stats.Table.create
      ~title:"E8 (Lemma 4.4) wPAXOS message and tag bounds vs n"
      ~columns:
        [ "topology"; "n"; "max ids/message"; "max tag"; "broadcasts"; "ok" ]
  in
  let cases =
    let base =
      [
        ("line:9", Amac.Topology.line 9);
        ("grid:4x4", Amac.Topology.grid ~width:4 ~height:4);
        ( "random:24",
          Amac.Topology.random_connected (Amac.Rng.create 5) ~n:24
            ~extra_edges:8 );
      ]
    in
    if !quick then base
    else
      base
      @ [
          ( "random:48",
            Amac.Topology.random_connected (Amac.Rng.create 6) ~n:48
              ~extra_edges:16 );
          ( "star-of-lines:12x4",
            Amac.Topology.star_of_lines ~arms:12 ~arm_len:4 );
        ]
  in
  List.iter
    (fun (name, topology) ->
      let n = Amac.Topology.size topology in
      let instrument = Consensus.Wpaxos.Instrument.create () in
      let result =
        Consensus.Runner.run
          (Consensus.Wpaxos.make ~instrument ())
          ~topology
          ~scheduler:(Amac.Scheduler.random (Amac.Rng.create 13) ~fack:4)
          ~inputs:(Consensus.Runner.inputs_alternating ~n)
          ~max_time:5_000_000
      in
      Stats.Table.add_row table
        [
          name;
          string_of_int n;
          string_of_int result.outcome.max_ids_per_message;
          string_of_int (Consensus.Wpaxos.Instrument.max_tag instrument);
          string_of_int result.outcome.broadcasts;
          ok_of result;
        ])
    cases;
  Stats.Table.add_note table
    "ids per message is a constant (<=12) independent of n; tags stay far \
     below the poly(n) ceiling of Lemma 4.4.";
  table

(* ------------------------------------------------------------------ *)
(* E9 - ablation: the stabilizing services are the contribution         *)
(* ------------------------------------------------------------------ *)

let e9 () =
  let table =
    Stats.Table.create
      ~title:
        "E9 (ablation) star-of-lines 8x4 (n=33, D=8), F_ack=2: what each \
         wPAXOS service buys"
      ~columns:[ "variant"; "latency"; "broadcasts"; "ok" ]
  in
  let topology = Amac.Topology.star_of_lines ~arms:8 ~arm_len:4 in
  let n = Amac.Topology.size topology in
  let inputs = Consensus.Runner.inputs_alternating ~n in
  let measure name algorithm =
    let r =
      Consensus.Runner.run algorithm ~topology
        ~scheduler:(Amac.Scheduler.fixed ~delay:2)
        ~inputs ~max_time:5_000_000
    in
    Stats.Table.add_row table
      [ name; latency_of r; string_of_int r.outcome.broadcasts; ok_of r ]
  in
  measure "wPAXOS (full)" (Consensus.Wpaxos.make ());
  measure "wPAXOS, no leader priority"
    (Consensus.Wpaxos.make ~leader_priority:false ());
  measure "wPAXOS, no aggregation" (Consensus.Wpaxos.make ~aggregate:false ());
  measure "flood-paxos (no trees at all)" (Consensus.Flood_paxos.make ());
  Stats.Table.add_note table
    "every variant stays safe; removing services costs time/messages, \
     removing the trees costs the O(D*F_ack) bound itself.";
  table

(* ------------------------------------------------------------------ *)
(* E10 - future work 3: randomness circumvents the crash impossibility  *)
(* ------------------------------------------------------------------ *)

let e10 () =
  let table =
    Stats.Table.create
      ~title:
        "E10 (Sec 5, direction 3) crashes: deterministic two-phase vs          randomized Ben-Or, F_ack=4"
      ~columns:
        [ "n"; "crashes"; "two-phase"; "ben-or (latency, 5 seeds)"; "ben-or ok" ]
  in
  Stats.Table.set_meta table "fack" "4";
  Stats.Table.set_meta table "seeds" "1..5";
  let crash (node, at) = Fault.Crash { node; at } in
  let cases =
    [ (3, [ (2, 5) ]); (5, [ (1, 0); (3, 6) ]); (7, [ (0, 1); (2, 4); (5, 9) ]);
      (9, [ (0, 1); (1, 5); (2, 9); (3, 13) ]) ]
  in
  List.iter
    (fun (n, crashes) ->
      let faults = List.map crash crashes in
      let inputs = Consensus.Runner.inputs_alternating ~n in
      let two_phase =
        Consensus.Runner.run Consensus.Two_phase.algorithm
          ~topology:(Amac.Topology.clique n)
          ~scheduler:(Amac.Scheduler.fixed ~delay:4)
          ~inputs ~faults ~max_time:2_000
      in
      let tp_verdict =
        if two_phase.report.Consensus.Checker.termination then "decided"
        else if Consensus.Checker.safe two_phase.report then
          "BLOCKED (safe, no termination)"
        else "UNSAFE"
      in
      let seeds = [ 1; 2; 3; 4; 5 ] in
      let results =
        List.map
          (fun seed ->
            Consensus.Runner.run
              (Consensus.Ben_or.make ~seed ())
              ~topology:(Amac.Topology.clique n)
              ~scheduler:(Amac.Scheduler.random (Amac.Rng.create seed) ~fack:4)
              ~inputs ~faults ~max_time:200_000)
          seeds
      in
      let times =
        List.filter_map
          (fun r -> Option.map float_of_int r.Consensus.Runner.decision_time)
          results
      in
      let all_ok =
        List.for_all
          (fun r -> Consensus.Checker.ok r.Consensus.Runner.report)
          results
      in
      Stats.Table.add_series table
        ~name:(every_row "ben_or_latency_n%d" n)
        times;
      Stats.Table.add_row table
        [
          string_of_int n;
          string_of_int (List.length crashes);
          tp_verdict;
          (if times = [] then "-"
           else
             every_row "%.0f..%.0f" (Stats.minimum times)
               (Stats.maximum times));
          (if all_ok then "yes (all seeds)" else "VIOLATED");
        ])
    cases;
  Stats.Table.add_note table
    "two-phase is safe but blocks forever under the crash (Thm 3.2 says any      deterministic algorithm must); Ben-Or decides under any minority of      crashes with probability 1.";
  table

(* ------------------------------------------------------------------ *)
(* E11 - future work 1: unreliable links                                *)
(* ------------------------------------------------------------------ *)

let e11 () =
  let table =
    Stats.Table.create
      ~title:
        "E11 (Sec 5, direction 1) line-12 + 4 flaky chords, F_ack=4, 12          seeds per row"
      ~columns:
        [ "p(deliver)"; "algorithm"; "safe"; "fully ok"; "median latency" ]
  in
  let n = 12 in
  let topology = Amac.Topology.line n in
  let chords = Amac.Topology.of_edges ~n [ (0, 6); (2, 9); (4, 11); (1, 7) ] in
  let seeds = List.init 12 (fun i -> i + 1) in
  let sweep ~p name algorithm_of =
    let safe = ref 0 and ok = ref 0 and times = ref [] in
    List.iter
      (fun seed ->
        let scheduler =
          Amac.Scheduler.bernoulli_unreliable
            (Amac.Rng.create (seed + 40))
            ~p
            (Amac.Scheduler.random (Amac.Rng.create seed) ~fack:4)
        in
        let result =
          Consensus.Runner.run (algorithm_of seed) ~topology ~scheduler
            ~unreliable:chords
            ~inputs:(Consensus.Runner.inputs_alternating ~n)
            ~max_time:100_000
        in
        if Consensus.Checker.safe result.report then incr safe;
        if Consensus.Checker.ok result.report then begin
          incr ok;
          times :=
            float_of_int (Option.get result.decision_time) :: !times
        end)
      seeds;
    Stats.Table.add_row table
      [
        every_row "%.1f" p;
        name;
        every_row "%d/12" !safe;
        every_row "%d/12" !ok;
        (if !times = [] then "-"
         else every_row "%.0f" (Stats.median !times));
      ]
  in
  List.iter
    (fun p ->
      sweep ~p "wPAXOS" (fun _ -> Consensus.Wpaxos.make ());
      sweep ~p "flood-gather" (fun _ -> Consensus.Flood_gather.make ()))
    [ 0.0; 0.3; 0.7 ];
  Stats.Table.add_note table
    "safety survives unconditionally (the open question in Sec 5 is about      optimizing liveness/time, not safety); flood-gather's liveness is      unaffected because extra deliveries are pure information gain.";
  table

(* ------------------------------------------------------------------ *)
(* E12 - Sec 2 open problem: the cost of bit-by-bit multi-valued consensus *)
(* ------------------------------------------------------------------ *)

let e12 () =
  let table =
    Stats.Table.create
      ~title:
        "E12 (Sec 2 open problem) multi-valued consensus by bit-by-bit          binary consensus, 6-clique, F_ack=5"
      ~columns:
        [ "bits"; "value space"; "latency (median of 5 seeds)"; "latency/bits"; "ok" ]
  in
  let n = 6 in
  let seeds = [ 1; 2; 3; 4; 5 ] in
  Stats.Table.set_meta table "fack" "5";
  Stats.Table.set_meta table "n" (string_of_int n);
  Stats.Table.set_meta table "seeds" "1..5";
  List.iter
    (fun bits ->
      let algorithm =
        Consensus.Multi_value.make ~bits Consensus.Two_phase.algorithm
      in
      let results =
        List.map
          (fun seed ->
            let inputs =
              Array.init n (fun i ->
                  ((i * 131) + (seed * 17)) mod (1 lsl bits))
            in
            Consensus.Runner.run algorithm ~give_n:false
              ~topology:(Amac.Topology.clique n)
              ~scheduler:(Amac.Scheduler.random (Amac.Rng.create seed) ~fack:5)
              ~inputs ~max_time:1_000_000)
          seeds
      in
      let all_ok =
        List.for_all
          (fun r -> Consensus.Checker.ok r.Consensus.Runner.report)
          results
      in
      let times =
        List.map
          (fun r -> float_of_int (Option.get r.Consensus.Runner.decision_time))
          results
      in
      let median = Stats.median times in
      Stats.Table.add_series table
        ~name:(every_row "latency_bits%d" bits)
        times;
      Stats.Table.add_row table
        [
          string_of_int bits;
          string_of_int (1 lsl bits);
          every_row "%.0f" median;
          every_row "%.1f" (median /. float_of_int bits);
          (if all_ok then "yes" else "VIOLATED");
        ])
    [ 1; 2; 4; 8; 12 ];
  Stats.Table.add_note table
    "latency is linear in the value width (latency/bits ~constant): the      baseline reduction costs Theta(log|V|) binary instances, which is the      inefficiency the paper's open problem asks to beat.";
  table

(* ------------------------------------------------------------------ *)

let b5 () =
  let table =
    Stats.Table.create
      ~title:
        "B5 mcheck explorer throughput (two-phase, cliques, exhaustive up to      budgets)"
      ~columns:
        [
          "n";
          "crashes";
          "states";
          "transitions";
          "states/sec";
          "dedup hit rate";
          "sleep skips";
          "verdict";
        ]
  in
  let cases =
    if !quick then [ (2, 0); (2, 1); (3, 0) ] else [ (2, 0); (2, 1); (3, 0); (3, 1) ]
  in
  List.iter
    (fun (n, crash_budget) ->
      let config =
        { Mcheck.Explore.default with crash_budget; max_states = 5_000_000 }
      in
      let started = Sys.time () in
      let stats =
        Mcheck.Explore.explore config Consensus.Two_phase.algorithm
          ~topology:(Amac.Topology.clique n)
          ~inputs:(Consensus.Runner.inputs_alternating ~n)
      in
      let elapsed = Sys.time () -. started in
      let revisits = stats.Mcheck.Explore.dedup_hits in
      let lookups = stats.Mcheck.Explore.states + revisits in
      Stats.Table.add_row table
        [
          string_of_int n;
          string_of_int crash_budget;
          string_of_int stats.Mcheck.Explore.states;
          string_of_int stats.Mcheck.Explore.transitions;
          every_row "%.0f" (float_of_int stats.Mcheck.Explore.states /. max elapsed 1e-9);
          every_row "%.1f%%"
            (100.0 *. float_of_int revisits /. float_of_int (max lookups 1));
          string_of_int stats.Mcheck.Explore.sleep_skips;
          (if stats.Mcheck.Explore.violations <> [] then "VIOLATED"
           else if stats.Mcheck.Explore.truncated then "truncated"
           else "clean");
        ])
    cases;
  Stats.Table.add_note table
    "keying and snapshotting go through the algorithm's fingerprint/clone      hooks (B7 measures the primitives in isolation); dedup hit rate shows      how much of the interleaving space converges, sleep skips what the      partial-order reduction pruned before keying.";
  table

(* ------------------------------------------------------------------ *)

let b6 () =
  let table =
    Stats.Table.create
      ~title:
        "B6 hardened wpaxos under loss: decide latency and retransmissions      vs loss-window width, 5-clique, F_ack=4"
      ~columns:
        [
          "window";
          "latency (median of 5 seeds)";
          "broadcasts";
          "retransmissions";
          "all correct decided";
          "safe";
        ]
  in
  let n = 5 in
  let fack = 4 in
  let seeds = [ 1; 2; 3; 4; 5 ] in
  Stats.Table.set_meta table "fack" (string_of_int fack);
  Stats.Table.set_meta table "n" (string_of_int n);
  Stats.Table.set_meta table "seeds" "1..5";
  (* Width w isolates node 0 for [0, w) and drops one far edge for the
     second half of the window — the retransmission machinery must bridge
     both. w = 0 is the fault-free baseline that defines the
     retransmission count (broadcasts over baseline). *)
  let plan_of w =
    if w = 0 then []
    else
      [
        Fault.Partition { cut = [ 0 ]; from_ = 0; until = w };
        Fault.Link_drop { edge = (2, 3); from_ = w / 2; until = w };
      ]
  in
  let run ~seed ~w =
    Consensus.Runner.run
      (Consensus.Wpaxos.make ())
      ~topology:(Amac.Topology.clique n)
      ~scheduler:(Amac.Scheduler.random (Amac.Rng.create seed) ~fack)
      ~inputs:(Consensus.Runner.inputs_alternating ~n)
      ~faults:(plan_of w) ~max_time:1_000_000
  in
  let baseline_broadcasts =
    List.map
      (fun seed ->
        let r = run ~seed ~w:0 in
        float_of_int r.Consensus.Runner.degradation.Consensus.Checker.broadcasts)
      seeds
  in
  let baseline = Stats.median baseline_broadcasts in
  List.iter
    (fun w ->
      let results = List.map (fun seed -> run ~seed ~w) seeds in
      let degradations =
        List.map (fun r -> r.Consensus.Runner.degradation) results
      in
      let latencies =
        List.map
          (fun (d : Consensus.Checker.degradation) ->
            match d.max_decide_time with
            | Some t -> float_of_int t
            | None -> infinity)
          degradations
      in
      let broadcasts =
        Stats.median
          (List.map
             (fun (d : Consensus.Checker.degradation) ->
               float_of_int d.broadcasts)
             degradations)
      in
      let all_decided =
        List.for_all
          (fun (d : Consensus.Checker.degradation) ->
            d.decided_fraction >= 1.0)
          degradations
      in
      let safe =
        List.for_all
          (fun (d : Consensus.Checker.degradation) -> d.safe)
          degradations
      in
      (* never-decided seeds carry [infinity]; the raw series keeps only
         the finite measurements *)
      Stats.Table.add_series table
        ~name:(every_row "latency_w%d" w)
        (List.filter Float.is_finite latencies);
      Stats.Table.add_row table
        [
          (if w = 0 then "none" else Printf.sprintf "[0,%d)" w);
          every_row "%.0f" (Stats.median latencies);
          every_row "%.0f" broadcasts;
          every_row "%+.0f" (broadcasts -. baseline);
          (if all_decided then "yes" else "NO");
          (if safe then "yes" else "VIOLATED");
        ])
    [ 0; 5; 10; 20; 40 ];
  Stats.Table.add_note table
    "the run cannot finish on node 0 before its window closes, so latency      is bounded below by the width and lands a recovery-backoff delay      after it; every lossy cell pays a retransmission overhead (silence      re-elections, fresh-proposal backoff, decision refresh). Safety holds      in every cell unconditionally.";
  table

(* ------------------------------------------------------------------ *)

(* The four explorer primitives that B5's throughput decomposes into,
   timed in isolation over one sampled batch of reachable states. The
   marshal rows are the seed implementation (Marshal + MD5 keying,
   Marshal round-trip cloning); the fast rows are the hook-based paths
   the explorer now runs on. *)
let b7 () =
  let table =
    Stats.Table.create
      ~title:
        "B7 state keying/cloning primitives (two-phase 3-clique reachable      states, hooks vs Marshal)"
      ~columns:[ "primitive"; "ns/state"; "total"; "speedup" ]
  in
  let samples = if !quick then 10_000 else 50_000 in
  let reps = if !quick then 3 else 5 in
  let ss =
    Mcheck.Explore.sample
      { Mcheck.Explore.default with max_states = 5_000_000 }
      Consensus.Two_phase.algorithm
      ~topology:(Amac.Topology.clique 3)
      ~inputs:(Consensus.Runner.inputs_alternating ~n:3)
      ~max_samples:samples
  in
  let n = Mcheck.Explore.sample_size ss in
  Stats.Table.set_meta table "samples" (string_of_int n);
  Stats.Table.set_meta table "reps" (string_of_int reps);
  let time f =
    (* one warm-up pass so the first row doesn't pay cold caches *)
    ignore (f ss);
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (f ss)
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  let rows =
    [
      ("key: fingerprint hook", time Mcheck.Explore.keys_fast, `Fast_key);
      ("key: Marshal+MD5", time Mcheck.Explore.keys_marshal, `Marshal_key);
      ("clone: hook deep-copy", time Mcheck.Explore.clones_fast, `Fast_clone);
      ("clone: Marshal round-trip", time Mcheck.Explore.clones_marshal, `Marshal_clone);
    ]
  in
  let baseline tag =
    let find t = List.find (fun (_, _, t') -> t' = t) rows in
    let (_, s, _) =
      match tag with
      | `Fast_key | `Marshal_key -> find `Marshal_key
      | `Fast_clone | `Marshal_clone -> find `Marshal_clone
    in
    s
  in
  List.iter
    (fun (name, secs, tag) ->
      Stats.Table.add_row table
        [
          name;
          every_row "%.0f" (secs *. 1e9 /. float_of_int n);
          every_row "%.3fs" secs;
          every_row "%.1fx" (baseline tag /. secs);
        ])
    rows;
  Stats.Table.add_note table
    "speedup is against the Marshal implementation of the same primitive.      The sampled set is keying-neutral (BFS keyed on the Marshal digest),      so both key columns hash identical state populations. The fast-key      pass blanks each configuration's per-node fingerprint and prefix      caches first, so it times the full structural hash; inside the      explorer the caches survive cloning and only mutated nodes re-hash      (B5 shows the amortized effect).";
  table

(* ------------------------------------------------------------------ *)

(* Fuzz campaign scaling across domains. The campaign is clean (the
   corrected two-phase algorithm has no reachable violation under this
   config), so every run does the full [iterations] of work; the outcome
   identity check exercises Campaign.run's byte-determinism contract on the
   same wave machinery that reports early failures. *)
let b8 () =
  let table =
    Stats.Table.create
      ~title:
        "B8 fuzz campaign scaling (two-phase, clean campaign, domains      1/2/4)"
      ~columns:
        [ "jobs"; "wall"; "iters/sec"; "speedup"; "report identical" ]
  in
  let iterations = if !quick then 2_000 else 20_000 in
  let campaign =
    Mcheck.Fuzz.campaign
      { Mcheck.Fuzz.default with kinds = [ Mcheck.Fuzz.Clique ] }
      Consensus.Two_phase.algorithm
  in
  Stats.Table.set_meta table "iterations" (string_of_int iterations);
  Stats.Table.set_meta table "seed" "1";
  Stats.Table.set_meta table "host_cores"
    (string_of_int (Domain.recommended_domain_count ()));
  let render (o : _ Mcheck.Campaign.outcome) =
    Printf.sprintf "iterations_run=%d %s" o.iterations_run
      (match o.counterexample with
      | None -> "clean"
      | Some cx -> Format.asprintf "%a" campaign.pp cx)
  in
  let run jobs =
    let t0 = Unix.gettimeofday () in
    let outcome = Mcheck.Campaign.run ~jobs campaign ~iterations ~seed:1 in
    (Unix.gettimeofday () -. t0, render outcome)
  in
  let base_wall, base_report = run 1 in
  List.iter
    (fun jobs ->
      let wall, report = if jobs = 1 then (base_wall, base_report) else run jobs in
      Stats.Table.add_row table
        [
          string_of_int jobs;
          every_row "%.2fs" wall;
          every_row "%.0f" (float_of_int iterations /. wall);
          every_row "%.2fx" (base_wall /. wall);
          (if report = base_report then "yes" else "DIVERGED");
        ])
    [ 1; 2; 4 ];
  Stats.Table.add_note table
    "Campaign.run scans iterations in contiguous waves and reports the minimum      failing iteration, so the outcome is byte-identical to the sequential      run at any job count; 'report identical' compares rendered outcomes      against jobs=1. Wall-clock speedup is bounded by host_cores: on a      single-core host the extra domains only measure coordination overhead.";
  table

(* ------------------------------------------------------------------ *)

(* The replicated log under load: committed commands/sec and commit-latency
   quantiles as replica count and loss-window width vary. Everything except
   the wall clock is deterministic from the fixed seed, so the gate pins
   committed/p50/p99 exactly and only cmds/sec carries tolerance. *)
let b9 () =
  let table =
    Stats.Table.create
      ~title:
        "B9 replicated log (lib/smr): throughput and commit latency vs      replicas and loss-window width (closed loop, bursty scheduler)"
      ~columns:
        [ "n"; "loss width"; "committed"; "cmds/sec"; "p50"; "p99"; "end_time"; "safe" ]
  in
  (* cmds is the same in quick and full runs: quick only trims the case
     list, so the surviving rows stay byte-comparable across modes (the
     gate intersects on (n, loss width)). *)
  let cmds = 300 in
  let seed = 42 in
  Stats.Table.set_meta table "cmds" (string_of_int cmds);
  Stats.Table.set_meta table "seed" (string_of_int seed);
  Stats.Table.set_meta table "scheduler" "bursty(40 fast/12 slow,fack=3)";
  let cases =
    if !quick then [ (3, 0); (5, 20) ]
    else
      List.concat_map
        (fun n -> List.map (fun w -> (n, w)) [ 0; 20; 60 ])
        [ 3; 5; 7 ]
  in
  List.iter
    (fun (n, width) ->
      (* Three staggered loss windows on distinct low-numbered edges (all
         present for any clique n >= 3), each [start, start+width). *)
      let faults =
        if width = 0 then []
        else
          [
            Fault.Link_drop { edge = (0, 1); from_ = 50; until = 50 + width };
            Fault.Link_drop { edge = (1, 2); from_ = 200; until = 200 + width };
            Fault.Link_drop { edge = (0, 2); from_ = 400; until = 400 + width };
          ]
      in
      let t0 = Unix.gettimeofday () in
      let r =
        Workload.run ~faults
          ~topology:(Amac.Topology.clique n)
          ~scheduler:(Amac.Scheduler.bursty ~fack:3 ~fast_len:40 ~slow_len:12)
          ~seed ~cmds
          ~mode:(Workload.Closed_loop { clients_per_node = 1 })
          ()
      in
      let wall = Unix.gettimeofday () -. t0 in
      let quant q =
        match Workload.quantile r.Workload.latencies ~q with
        | Some l -> string_of_int l
        | None -> "-"
      in
      (* PR 8 satellite: the full sorted latency distributions (not just
         the printed p50/p99) land in BENCH.json, split into the queueing
         and replication phases Smr.propose_time separates. *)
      let series suffix values =
        Stats.Table.add_series table
          ~name:(every_row "%s_n%d_w%d" suffix n width)
          (List.map float_of_int (Array.to_list values))
      in
      series "commit_latency" r.Workload.latencies;
      series "queue_latency" r.Workload.queue_latencies;
      series "replicate_latency" r.Workload.replicate_latencies;
      Stats.Table.add_row table
        [
          string_of_int n;
          string_of_int width;
          string_of_int r.Workload.committed;
          every_row "%.0f" (float_of_int r.Workload.committed /. wall);
          quant 0.50;
          quant 0.99;
          string_of_int r.Workload.outcome.Amac.Engine.end_time;
          (if r.Workload.violations = [] then "yes" else "VIOLATED");
        ])
    cases;
  Stats.Table.add_note table
    "Closed loop: one client per replica, outstanding=1, next submit fired      from the previous command's apply callback. committed / p50 / p99 /      end_time are deterministic from the seed (the gate matches them      exactly); cmds/sec is committed divided by host wall-clock and      carries the usual +/-30% tolerance.";
  table

(* ------------------------------------------------------------------ *)

(* Sharded multi-group SMR: aggregate throughput and commit latency vs
   group count at fixed n. Each group's 3 voters are offset by the group
   index, so different groups elect different leaders and commit over
   different nodes' MAC channels — that per-node channel (one broadcast
   in flight, one ack per F_ack window) is the resource sharding
   multiplies. The offered load (Zipf-keyed, open loop, mean_gap 1,
   shard-affine clients) and the batch threshold are identical across
   rows; only G varies.

   Throughput is committed per 1000 simulated ticks measured against
   last_commit — the tick of the final first-apply. end_time would
   additionally count the post-commit quiescence tail (lease expiry,
   heartbeat settling), which is load-independent noise around the
   quantity under test. Everything except the wall clock is
   deterministic from the seed, so the gate pins committed /
   last_commit / end_time / p50 / p99 exactly — and because last_commit
   is exact, cmds/ktick is exact too, which is what the G=4 >= 2.5x G=1
   gate rule leans on. cmds/sec (wall) is informational, +/-30% as
   usual. *)
let b13 () =
  let table =
    Stats.Table.create
      ~title:
        "B13 sharded SMR (lib/shard): aggregate throughput and commit      latency vs group count (open loop, zipf keys, batch=8)"
      ~columns:
        [
          "G"; "committed"; "batches"; "last_commit"; "end_time"; "cmds/ktick";
          "cmds/sec"; "p50"; "p99"; "safe";
        ]
  in
  let n = 8 in
  (* Same cmds in quick and full mode: the gate exact-matches rows by G
     across snapshots, so a quick run must produce the same cells as the
     full baseline for the G cases it keeps. The runs are milliseconds
     each — quick only trims the group-count sweep. *)
  let cmds = 3200 in
  let batch = 8 in
  let seed = 42 in
  Stats.Table.set_meta table "n" (string_of_int n);
  Stats.Table.set_meta table "cmds" (string_of_int cmds);
  Stats.Table.set_meta table "batch" (string_of_int batch);
  Stats.Table.set_meta table "seed" (string_of_int seed);
  Stats.Table.set_meta table "scheduler" "bursty(40 fast/12 slow,fack=3)";
  let cases = if !quick then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  List.iter
    (fun groups ->
      let members_of g = [ g mod n; (g + 1) mod n; (g + 2) mod n ] in
      let t0 = Unix.gettimeofday () in
      let r =
        Shard_workload.run
          ~topology:(Amac.Topology.clique n)
          ~scheduler:(Amac.Scheduler.bursty ~fack:3 ~fast_len:40 ~slow_len:12)
          ~seed ~cmds ~groups ~batch ~mean_gap:1 ~burst:32 ~affinity:true
          ~key_space:1024 ~members_of ~max_time:4_000_000 ()
      in
      let wall = Unix.gettimeofday () -. t0 in
      let quant q =
        match Workload.quantile r.Shard_workload.latencies ~q with
        | Some l -> string_of_int l
        | None -> "-"
      in
      let last_commit = r.Shard_workload.last_commit in
      Stats.Table.add_series table
        ~name:(every_row "commit_latency_g%d" groups)
        (List.map float_of_int (Array.to_list r.Shard_workload.latencies));
      Stats.Table.add_row table
        [
          string_of_int groups;
          string_of_int r.Shard_workload.committed;
          string_of_int r.Shard_workload.batches;
          string_of_int last_commit;
          string_of_int r.Shard_workload.outcome.Amac.Engine.end_time;
          every_row "%.2f"
            (1000.0
            *. float_of_int r.Shard_workload.committed
            /. float_of_int (max 1 last_commit));
          every_row "%.0f" (float_of_int r.Shard_workload.committed /. wall);
          quant 0.50;
          quant 0.99;
          (if r.Shard_workload.violations = [] then "yes" else "VIOLATED");
        ])
    cases;
  Stats.Table.add_note table
    "Open loop at mean_gap=1, burst=32, shard-affine clients: the offered      load saturates a single group, so adding groups shortens the drain      (last_commit) instead of raising committed. cmds/ktick = committed      per 1000 simulated ticks of last_commit is fully deterministic (the      gate checks G=4 >= 2.5x G=1 on it); cmds/sec is wall-clock and      informational. Group g's voters are nodes g, g+1, g+2 (mod n), so      each group's leader commits over its own MAC channel; every wire      slot carries all groups' traffic as one tagged bundle, which is why      the per-node one-broadcast-in-flight budget multiplies instead of      being time-sliced. Compare B9: same contract, one group, closed      loop.";
  table

(* ------------------------------------------------------------------ *)

(* Byzantine overhead: honest-decision latency and message cost of the
   Byzantine-tolerant protocol as the adversary grows, byz_consensus on a
   clique wrapped in the canonical strategy (replay+forge behaviors on the
   highest-numbered nodes, early equivocation window against the low
   half). Every cell is deterministic from the fixed seed — no wall clock
   anywhere — so the gate pins every column exactly. *)
let b10 () =
  let table =
    Stats.Table.create
      ~title:
        "B10 Byzantine adversary (lib/byz): honest-decision latency vs      Byzantine count (byz_consensus, canonical strategy)"
      ~columns:
        [
          "n"; "byz"; "latency"; "broadcasts"; "suppressed"; "substituted";
          "decided"; "safe";
        ]
  in
  let seed = 42 in
  Stats.Table.set_meta table "seed" (string_of_int seed);
  Stats.Table.set_meta table "scheduler" "random(fack=3)";
  let cases =
    if !quick then [ (4, 0); (4, 1) ]
    else [ (4, 0); (4, 1); (7, 0); (7, 1); (7, 2) ]
  in
  List.iter
    (fun (n, byz_count) ->
      let behavior =
        { Byz.Model.replay_period = 3; forge_period = 2; drop_own = false }
      in
      let strategy =
        {
          Byz.Model.byz = List.init byz_count (fun i -> (n - 1 - i, behavior));
          tampers =
            List.init byz_count (fun i ->
                {
                  Byz.Model.node = n - 1 - i;
                  victims = List.init (n / 2) Fun.id;
                  from_ = 0;
                  until = 40;
                  kind = Byz.Model.Equivocate;
                });
          seed;
        }
      in
      let wrapped =
        Byz.Model.wrap ~n ~adapter:Byz.Adapters.byz_consensus ~strategy
          (Consensus.Byz_consensus.make ~seed:7 ())
      in
      let r =
        Consensus.Runner.run wrapped.Byz.Model.algorithm
          ~topology:(Amac.Topology.clique n)
          ~scheduler:(Amac.Scheduler.random (Amac.Rng.create seed) ~fack:3)
          ~inputs:(Consensus.Runner.inputs_alternating ~n)
          ~substitute:wrapped.Byz.Model.substitute
          ~honest:wrapped.Byz.Model.honest ~max_time:200_000
      in
      let d = r.Consensus.Runner.degradation in
      Stats.Table.add_row table
        [
          string_of_int n;
          string_of_int byz_count;
          (match r.Consensus.Runner.decision_time with
          | Some t -> string_of_int t
          | None -> "-");
          string_of_int r.Consensus.Runner.outcome.Amac.Engine.broadcasts;
          string_of_int r.Consensus.Runner.outcome.Amac.Engine.suppressed;
          string_of_int r.Consensus.Runner.outcome.Amac.Engine.substituted;
          every_row "%.2f" d.Consensus.Checker.decided_fraction;
          (if d.Consensus.Checker.safe then "yes" else "VIOLATED");
        ])
    cases;
  Stats.Table.add_note table
    "byz counts the wrapped adversaries (highest node ids); latency is the      last honest decision's time; suppressed/substituted are the engine's      tamper counters; decided is the honest decided fraction. All cells      are schedule-deterministic — the gate matches every column exactly,      with no tolerance.";
  table

(* ------------------------------------------------------------------ *)

(* Production lifecycle: (a) failover — a leader crash mid-traffic, swept
   over the ◇P detector's patience; [detect] is the first suspicion of the
   crashed leader (engine clock, via Workload's on_suspect) minus the
   crash time, and end_time shows the full re-election + catch-up cost.
   (b) steady-state vs a mid-run 3→5 joint reconfiguration vs aggressive
   compaction, same traffic — the commit-latency dip (or its absence) is
   read off p50/p99 against the steady row. No wall clock anywhere: every
   cell is deterministic from the seed and the gate matches all of them
   exactly, keyed (scenario, patience). *)
let b11 () =
  let table =
    Stats.Table.create
      ~title:
        "B11 production lifecycle (lib/fd, lib/smr): failover latency vs      detector patience; commit latency under reconfiguration and      compaction"
      ~columns:
        [
          "scenario"; "patience"; "detect"; "committed"; "p50"; "p99";
          "end_time"; "safe";
        ]
  in
  let seed = 42 in
  let cmds = 40 in
  Stats.Table.set_meta table "seed" (string_of_int seed);
  Stats.Table.set_meta table "cmds" (string_of_int cmds);
  Stats.Table.set_meta table "scheduler" "random(fack=3)";
  let quant (r : Workload.result) q =
    match Workload.quantile r.latencies ~q with
    | Some l -> string_of_int l
    | None -> "-"
  in
  let row ~scenario ~patience ~detect (r : Workload.result) =
    Stats.Table.add_row table
      [
        scenario;
        patience;
        detect;
        string_of_int r.Workload.committed;
        quant r 0.50;
        quant r 0.99;
        string_of_int r.Workload.outcome.Amac.Engine.end_time;
        (if r.Workload.violations = [] then "yes" else "VIOLATED");
      ]
  in
  (* (a) Failover: node n-1 — Ω's stable choice on a clique — crashes at
     t=300 with traffic still flowing; smaller patience suspects (and
     re-elects) sooner, at the price of false suspicions in loss-heavy
     runs. [detect] is crash → first suspicion of that node anywhere. *)
  let crash_at = 300 in
  let n = 5 in
  let patiences = if !quick then [ 16 ] else [ 8; 16; 32; 64 ] in
  List.iter
    (fun patience ->
      let first_suspicion = ref None in
      let on_suspect ~now ~node:_ ~suspect =
        if suspect = n - 1 && now >= crash_at && !first_suspicion = None then
          first_suspicion := Some now
      in
      let r =
        Workload.run
          ~faults:[ Fault.Crash { node = n - 1; at = crash_at } ]
          ~topology:(Amac.Topology.clique n)
          ~scheduler:(Amac.Scheduler.random (Amac.Rng.create seed) ~fack:3)
          ~seed ~cmds ~patience ~on_suspect
          ~mode:(Workload.Open_loop { mean_gap = 10 })
          ()
      in
      let detect =
        match !first_suspicion with
        | Some t -> string_of_int (t - crash_at)
        | None -> "-"
      in
      row ~scenario:"failover" ~patience:(string_of_int patience) ~detect r)
    patiences;
  (* (b) Same open-loop traffic three ways: untouched, through a joint
     3→5 reconfiguration landing mid-run, and under an aggressive
     compaction watermark. *)
  let lifecycle_run ?members ?reconfigs ?compact_every () =
    Workload.run ?members ?reconfigs ?compact_every
      ~topology:(Amac.Topology.clique n)
      ~scheduler:(Amac.Scheduler.random (Amac.Rng.create seed) ~fack:3)
      ~seed ~cmds
      ~mode:(Workload.Open_loop { mean_gap = 10 })
      ()
  in
  row ~scenario:"steady" ~patience:"-" ~detect:"-"
    (lifecycle_run ~members:[ 0; 1; 2 ] ());
  row ~scenario:"reconfig-3to5" ~patience:"-" ~detect:"-"
    (lifecycle_run ~members:[ 0; 1; 2 ]
       ~reconfigs:[ (0, 150, [ 0; 1; 2; 3; 4 ]) ]
       ());
  if not !quick then
    row ~scenario:"compact-8" ~patience:"-" ~detect:"-"
      (lifecycle_run ~compact_every:8 ());
  Stats.Table.add_note table
    "detect is first-suspicion time minus crash time (own-ack silence      crossing patience, so it tracks patience plus the straggler      conversation in flight); end_time folds in re-election and repair.      steady/reconfig-3to5 share members [0;1;2] and traffic — the p50/p99      delta IS the reconfiguration dip; compact-8 runs all five voters with      a watermark every 8 commits. Deterministic throughout: the gate      exact-matches every cell.";
  table

(* ------------------------------------------------------------------ *)

(* Critical paths + energy accounting (lib/obs): (a) the provenance
   DAG's longest decide path puts Thm 4.6's O(D * F_ack) bound on display
   — on a line the hop count grows linearly with the diameter at ~F_ack
   ticks per MAC edge, and the gate checks the monotonicity inside the
   fresh run as well as cell-exactness against the baseline; (b) the
   waiting-fraction / energy-per-command comparison across two-phase,
   wPAXOS and the SMR workload on a shared clique — what a consensus node
   mostly does is wait, and the busier protocol waits less per command.
   Fixed-delay scheduler and seeded workload: no wall clock anywhere, so
   every cell is deterministic and exact-gated. *)
let b12 () =
  let table =
    Stats.Table.create
      ~title:
        "B12 critical paths + energy (lib/obs): wPAXOS path length vs      diameter; waiting fraction across algorithms"
      ~columns:
        [
          "algo"; "topo"; "D"; "hops"; "path"; "ticks/hop"; "hops/D";
          "leader%"; "waiting"; "act/cmd"; "safe";
        ]
  in
  let fack = 3 in
  let seed = 42 in
  Stats.Table.set_meta table "fack" (string_of_int fack);
  Stats.Table.set_meta table "seed" (string_of_int seed);
  Stats.Table.set_meta table "scheduler" (every_row "fixed(%d)" fack);
  let scheduler = Amac.Scheduler.fixed ~delay:fack in
  let longest paths =
    List.fold_left
      (fun best (p : Obs.Critpath.path) ->
        match best with
        | Some (b : Obs.Critpath.path) when b.Obs.Critpath.hops >= p.Obs.Critpath.hops
          ->
            best
        | Some _ | None -> Some p)
      None paths
  in
  let energy_of ~n (outcome : Amac.Engine.outcome) =
    Obs.Energy.account ~n ~duration:outcome.Amac.Engine.end_time
      (Amac.Trace_export.spans outcome.Amac.Engine.trace)
  in
  (* (a) wPAXOS decide paths: the longest path per topology. *)
  let topos =
    if !quick then
      [ ("line:3", Amac.Topology.line 3); ("line:9", Amac.Topology.line 9) ]
    else
      [
        ("line:3", Amac.Topology.line 3);
        ("line:5", Amac.Topology.line 5);
        ("line:9", Amac.Topology.line 9);
        ("line:17", Amac.Topology.line 17);
        ("line:25", Amac.Topology.line 25);
        ("grid:4x4", Amac.Topology.grid ~width:4 ~height:4);
        ("grid:6x6", Amac.Topology.grid ~width:6 ~height:6);
      ]
  in
  List.iter
    (fun (name, topology) ->
      let n = Amac.Topology.size topology in
      let diameter = Amac.Topology.diameter topology in
      let prov = Obs.Provenance.create () in
      let r =
        Consensus.Runner.run (Consensus.Wpaxos.make ()) ~topology ~scheduler
          ~inputs:(Consensus.Runner.inputs_alternating ~n)
          ~record_trace:true ~provenance:prov
      in
      let path = Option.get (longest (Obs.Critpath.paths prov)) in
      let energy = energy_of ~n r.Consensus.Runner.outcome in
      let leader_frac =
        match Obs.Critpath.bottleneck path with
        | Some (_, f) -> f
        | None -> 0.0
      in
      Stats.Table.add_row table
        [
          "wpaxos";
          name;
          string_of_int diameter;
          string_of_int path.Obs.Critpath.hops;
          string_of_int path.Obs.Critpath.total;
          every_row "%.2f" (Obs.Critpath.per_hop path);
          every_row "%.2f"
            (float_of_int path.Obs.Critpath.hops /. float_of_int diameter);
          every_row "%.0f" (100.0 *. leader_frac);
          every_row "%.3f" (Obs.Energy.waiting_fraction energy);
          "-";
          ok_of r;
        ])
    topos;
  (* (b) Waiting fraction and transmission cost per command, one clique,
     three protocols. For single-shot consensus "a command" is one node's
     decision; for the SMR workload it is a committed client command. *)
  let clique = Amac.Topology.clique 5 in
  let consensus_row name algorithm =
    let r =
      Consensus.Runner.run algorithm ~topology:clique ~scheduler
        ~inputs:(Consensus.Runner.inputs_alternating ~n:5)
        ~record_trace:true
    in
    let energy = energy_of ~n:5 r.Consensus.Runner.outcome in
    let decided =
      Array.fold_left
        (fun acc d -> if Option.is_some d then acc + 1 else acc)
        0 r.Consensus.Runner.outcome.Amac.Engine.decisions
    in
    Stats.Table.add_row table
      [
        name;
        "clique:5";
        "-";
        "-";
        "-";
        "-";
        "-";
        "-";
        every_row "%.3f" (Obs.Energy.waiting_fraction energy);
        (match Obs.Energy.active_per_command energy ~committed:decided with
        | Some a -> every_row "%.1f" a
        | None -> "-");
        ok_of r;
      ]
  in
  consensus_row "two_phase" Consensus.Two_phase.algorithm;
  consensus_row "wpaxos" (Consensus.Wpaxos.make ());
  let smr =
    Workload.run ~topology:clique ~scheduler ~seed ~cmds:60
      ~mode:(Workload.Closed_loop { clients_per_node = 1 })
      ~record_trace:true ()
  in
  let energy = energy_of ~n:5 smr.Workload.outcome in
  Stats.Table.add_row table
    [
      "smr";
      "clique:5";
      "-";
      "-";
      "-";
      "-";
      "-";
      "-";
      every_row "%.3f" (Obs.Energy.waiting_fraction energy);
      (match
         Obs.Energy.active_per_command energy ~committed:smr.Workload.committed
       with
      | Some a -> every_row "%.1f" a
      | None -> "-");
      (if smr.Workload.violations = [] then "yes" else "VIOLATED");
    ];
  Stats.Table.add_note table
    "hops counts Broadcast->Deliver edges on the longest decide path      (informational attribution: each broadcast is caused by its sender's      latest boot/injection/delivery); path is decide time minus root time      and telescopes exactly into per-edge latencies; ticks/hop ~ F_ack      and hops/D ~ constant certify O(D*F_ack). leader% is the bottleneck      node's share of path time. waiting = idle / up-time from the span      export; act/cmd = transmission ticks per command (per decision for      the single-shot rows, per committed command for smr). Deterministic      throughout: the gate exact-matches every cell and checks hops grow      monotonically with D across the line rows.";
  table

(* Multi-hop scale (lib/topo_gen + the interference scheduler): wPAXOS
   decision latency vs diameter on generated 100/400/1000-node topologies,
   against the O(D * F_ack) bound of Thm 4.6. Grids sweep the diameter at
   fixed degree (D = W+H-2, so latency tracks D); RGGs at the connectivity
   radius keep D nearly flat while n grows 10x, so their rows separate
   diameter cost from node-count cost. alpha=0 rows are the degenerate
   no-interference scheduler; alpha=2 stretches each ack by 2 ticks per
   on-air neighbor (capped at 4 * F_ack). hops is the Message-edge count
   of the longest causal decide path (lib/obs Critpath) — the in-run shape
   witness the gate checks: hops grows monotonically with D across the
   grid rows and stays within a constant factor of D. Fixed-delay base
   scheduler and seeded generators: every cell is deterministic and
   exact-gated. *)
let b14 () =
  let table =
    Stats.Table.create
      ~title:
        "B14 multi-hop scale (lib/topo_gen): wPAXOS latency vs diameter      at 100/400/1000 nodes under interference"
      ~columns:
        [
          "topo"; "n"; "D"; "alpha"; "latency"; "hops"; "D*F_ack"; "lat/DF";
          "hops/D"; "safe";
        ]
  in
  let fack = 3 in
  let topo_seed = 1 in
  Stats.Table.set_meta table "fack" (string_of_int fack);
  Stats.Table.set_meta table "topo_seed" (string_of_int topo_seed);
  Stats.Table.set_meta table "scheduler"
    (every_row "fixed(%d)+sinr" fack);
  let row (spec, alpha) =
    let topology = Topo_gen.generate ~seed:topo_seed spec in
    let n = Amac.Topology.size topology in
    let diameter = Amac.Topology.diameter topology in
    let scheduler =
      Amac.Scheduler.interference ~alpha (Amac.Scheduler.fixed ~delay:fack)
    in
    let prov = Obs.Provenance.create () in
    let r =
      Consensus.Runner.run (Consensus.Wpaxos.make ()) ~topology ~scheduler
        ~inputs:(Consensus.Runner.inputs_alternating ~n)
        ~provenance:prov
    in
    let hops =
      List.fold_left
        (fun best (p : Obs.Critpath.path) -> max best p.Obs.Critpath.hops)
        0 (Obs.Critpath.paths prov)
    in
    let latency =
      match r.Consensus.Runner.decision_time with Some t -> t | None -> -1
    in
    let bound = diameter * fack in
    Stats.Table.add_row table
      [
        Topo_gen.name spec;
        string_of_int n;
        string_of_int diameter;
        string_of_int alpha;
        string_of_int latency;
        string_of_int hops;
        string_of_int bound;
        every_row "%.2f" (float_of_int latency /. float_of_int bound);
        every_row "%.2f" (float_of_int hops /. float_of_int diameter);
        ok_of r;
      ]
  in
  let grid w h = Topo_gen.Grid { width = w; height = h } in
  let rgg n = Topo_gen.Rgg { n; radius = Topo_gen.connectivity_radius ~n } in
  let cases =
    if !quick then
      [ (grid 10 10, 2); (grid 20 20, 2); (grid 25 40, 2); (rgg 1000, 2) ]
    else
      [
        (grid 10 10, 0);
        (grid 10 10, 2);
        (grid 20 20, 0);
        (grid 20 20, 2);
        (grid 25 40, 0);
        (grid 25 40, 2);
        (rgg 100, 2);
        (rgg 400, 2);
        (rgg 1000, 2);
      ]
  in
  List.iter row cases;
  Stats.Table.add_note table
    "latency is the last decide time; hops the Message-edge count of the      longest causal decide path. Grids: D doubles 10x10 -> 25x40 while      degree stays 4, and latency/hops track D (the gate checks hops is      monotone in D and hops/D bounded across grid rows at alpha=2 —      Thm 4.6's O(D*F_ack) at generator scale). RGGs at the connectivity      radius: n grows 10x but D stays ~constant, and so does latency —      diameter, not node count, is what consensus waits for. alpha=2      stretches acks by 2 ticks per on-air neighbor, so lat/DF rises with      contention but stays bounded. Deterministic throughout: the gate      exact-matches every cell.";
  table

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the simulator core                      *)
(* ------------------------------------------------------------------ *)

let bechamel_section () =
  let open Bechamel in
  let open Toolkit in
  (* Every key is past the ring's 16-key window, so the overflow heap
     serves every add and pop. *)
  let overflow_churn () =
    let q = Amac.Bucket_queue.create ~span:16 in
    for i = 0 to 255 do
      Amac.Bucket_queue.add q ~key:(16 + ((i * 7) mod 64)) i
    done;
    while not (Amac.Bucket_queue.is_empty q) do
      ignore (Amac.Bucket_queue.pop q)
    done
  in
  let diameter () =
    ignore (Amac.Topology.diameter (Amac.Topology.grid ~width:12 ~height:12))
  in
  let two_phase_run () =
    ignore
      (Amac.Engine.run Consensus.Two_phase.algorithm
         ~topology:(Amac.Topology.clique 16)
         ~scheduler:(Amac.Scheduler.random (Amac.Rng.create 1) ~fack:6)
         ~inputs:(Consensus.Runner.inputs_alternating ~n:16))
  in
  let wpaxos_run () =
    ignore
      (Amac.Engine.run (Consensus.Wpaxos.make ())
         ~topology:(Amac.Topology.grid ~width:4 ~height:4)
         ~scheduler:(Amac.Scheduler.random (Amac.Rng.create 1) ~fack:4)
         ~inputs:(Consensus.Runner.inputs_alternating ~n:16))
  in
  let tests =
    Test.make_grouped ~name:"core"
      [
        Test.make ~name:"B1 queue overflow 256 add+pop"
          (Staged.stage overflow_churn);
        Test.make ~name:"B2 diameter grid 12x12" (Staged.stage diameter);
        Test.make ~name:"B3 two-phase clique-16 full run"
          (Staged.stage two_phase_run);
        Test.make ~name:"B4 wpaxos grid-4x4 full run" (Staged.stage wpaxos_run);
      ]
  in
  let cfg =
    Benchmark.cfg ~limit:1000
      ~quota:(Time.second (if !quick then 0.2 else 0.5))
      ~kde:None ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table =
    Stats.Table.create ~title:"B1-B4 simulator micro-benchmarks"
      ~columns:[ "benchmark"; "time/run"; "r^2" ]
  in
  let rows =
    Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
  in
  List.iter
    (fun (name, result) ->
      let estimate =
        match Analyze.OLS.estimates result with
        | Some (e :: _) -> e
        | Some [] | None -> nan
      in
      let pretty =
        if estimate >= 1_000_000.0 then
          every_row "%.2f ms" (estimate /. 1_000_000.0)
        else if estimate >= 1_000.0 then
          every_row "%.2f us" (estimate /. 1_000.0)
        else every_row "%.0f ns" estimate
      in
      let r2 =
        match Analyze.OLS.r_square result with
        | Some r -> every_row "%.3f" r
        | None -> "-"
      in
      Stats.Table.add_row table [ name; pretty; r2 ])
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows);
  table

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("E1", e1);
    ("E2", e2);
    ("E3", e3);
    ("E4", e4);
    ("E5", e5);
    ("E6", e6);
    ("E7", e7);
    ("E8", e8);
    ("E9", e9);
    ("E10", e10);
    ("E11", e11);
    ("E12", e12);
    ("B5", b5);
    ("B6", b6);
    ("B7", b7);
    ("B8", b8);
    ("B9", b9);
    ("B10", b10);
    ("B11", b11);
    ("B12", b12);
    ("B13", b13);
    ("B14", b14);
  ]

let () =
  let only = ref [] in
  let skip_bechamel = ref false in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--skip-bechamel" :: rest ->
        skip_bechamel := true;
        parse rest
    | "--only" :: id :: rest ->
        only := String.uppercase_ascii id :: !only;
        parse rest
    | arg :: _ ->
        Printf.eprintf
          "unknown argument %s (use --quick, --skip-bechamel, --only EX)\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let wanted id = !only = [] || List.mem id !only in
  let collected = ref [] in
  let record id table =
    Stats.Table.print table;
    collected := (id, table) :: !collected
  in
  List.iter
    (fun (id, experiment) ->
      if wanted id then begin
        record id (experiment ());
        print_newline ()
      end)
    experiments;
  if (not !skip_bechamel) && (!only = [] || wanted "BECHAMEL") then
    record "BECHAMEL" (bechamel_section ());
  (* The machine-readable mirror: BENCH.json holds exactly the tables
     printed above (same cells via Table.to_json), keyed by experiment id. *)
  let json =
    Obs.Json.Obj
      [
        ("suite", Obs.Json.String "amac-bench");
        ("quick", Obs.Json.Bool !quick);
        ( "experiments",
          Obs.Json.List
            (List.rev_map
               (fun (id, table) ->
                 Obs.Json.Obj
                   [
                     ("id", Obs.Json.String id);
                     ("table", Stats.Table.to_json table);
                   ])
               !collected) );
      ]
  in
  let oc = open_out_bin "BENCH.json" in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH.json (%d experiments)\n"
    (List.length !collected)
