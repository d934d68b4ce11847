(* The Sec 3.1 (FLP-style) machinery: valency classification, persistence of
   bivalence, and what one crash does to two-phase consensus. *)

module B = Lowerbound.Bivalence

let explorer ?(n = 3) inputs =
  B.create Consensus.Two_phase.algorithm
    ~topology:(Amac.Topology.clique n)
    ~inputs

let test_unanimous_univalent () =
  (* Validity forces unanimity to be univalent (FLP Lemma 2's base case). *)
  Alcotest.(check bool) "all-0 univalent(0)" true
    (B.initial_verdict (explorer [| 0; 0; 0 |]) = B.Univalent 0);
  Alcotest.(check bool) "all-1 univalent(1)" true
    (B.initial_verdict (explorer [| 1; 1; 1 |]) = B.Univalent 1)

let test_mixed_bivalent () =
  (* A bivalent initial configuration exists — the FLP Lemma 2 analogue. *)
  Alcotest.(check bool) "0;1;1 bivalent" true
    (B.initial_verdict (explorer [| 0; 1; 1 |]) = B.Bivalent);
  Alcotest.(check bool) "0;0;1 bivalent" true
    (B.initial_verdict (explorer [| 0; 0; 1 |]) = B.Bivalent)

let test_two_node_bivalent () =
  Alcotest.(check bool) "n=2 mixed bivalent" true
    (B.initial_verdict (explorer ~n:2 [| 0; 1 |]) = B.Bivalent)

let test_explore_stats () =
  let stats = B.explore (explorer [| 0; 1; 1 |]) ~max_depth:6 in
  Alcotest.(check int) "one initial config" 1 stats.configs_by_depth.(0);
  Alcotest.(check int) "initial is bivalent" 1 stats.bivalent_by_depth.(0);
  Alcotest.(check bool) "bivalence persists at least one step" true
    (stats.deepest_bivalent >= 1);
  Alcotest.(check bool) "exploration expands" true (stats.total_configs > 10)

let test_bivalence_dies_without_crashes () =
  (* Two-phase terminates without crashes, so along crash-free valid-step
     executions bivalence must die out well before termination depth. *)
  let stats = B.explore (explorer [| 0; 1; 1 |]) ~max_depth:20 in
  Alcotest.(check bool) "bivalence bounded" true
    (stats.deepest_bivalent < 10)

let test_lemma_3_1_witness () =
  (* Lemma 3.1 says: for a 1-crash-TOLERANT algorithm, every node has an
     extension after which its own valid step keeps bivalence. Two-phase is
     not 1-crash tolerant, so the lemma need not hold at every node — and
     indeed it does not: that escape hatch is exactly how the algorithm
     evades the Thm 3.2 impossibility. We check both sides: some node has a
     witness (bivalence genuinely extends), and some node has none within
     the search depth (the lemma fails for this algorithm, as it must). *)
  let t = explorer [| 0; 1; 1 |] in
  let witness node = B.check_lemma_3_1 t ~node ~search_depth:8 <> None in
  let results = List.map witness [ 0; 1; 2 ] in
  Alcotest.(check bool) "some node has a witness" true
    (List.mem true results);
  Alcotest.(check bool) "some node has no witness (not crash-tolerant)" true
    (List.mem false results)

let test_one_crash_kills_termination () =
  (* Thm 3.2 in action: a single crash yields an execution where a live
     node waits forever (a blocked undecided configuration). *)
  let t = explorer [| 0; 1; 1 |] in
  match B.find_termination_violation t ~max_crashes:1 ~max_depth:25 () with
  | Some schedule ->
      Alcotest.(check bool) "schedule contains a crash" true
        (List.exists (function B.Crash _ -> true | _ -> false) schedule)
  | None -> Alcotest.fail "expected a termination violation with 1 crash"

let test_no_termination_violation_without_crashes () =
  let t = explorer [| 0; 1; 1 |] in
  Alcotest.(check bool) "crash-free executions all decide" true
    (B.find_termination_violation t ~max_crashes:0 ~max_depth:25 () = None)

let test_agreement_survives_one_crash () =
  (* Safety is crash-tolerant even though liveness is not: exhaustively, no
     1-crash schedule makes two-phase disagree. *)
  List.iter
    (fun inputs ->
      let t = explorer inputs in
      match
        B.find_agreement_violation t ~max_crashes:1 ~max_depth:22
          ~max_configs:150_000 ()
      with
      | None -> ()
      | Some schedule ->
          Alcotest.failf "agreement violation: %s"
            (String.concat " "
               (List.map (Format.asprintf "%a" B.pp_step) schedule)))
    [ [| 0; 1; 1 |]; [| 0; 0; 1 |]; [| 1; 0; 1 |] ]

let test_literal_two_phase_disagrees_under_crash_free_steps () =
  (* The erratum also shows up here: the literal pseudocode of Algorithm 1
     admits a crash-FREE valid-step execution deciding both values on a
     2-clique... — valid steps alone may or may not realise the erratum
     interleaving; what must hold is that the CORRECTED algorithm never
     does. *)
  let t =
    B.create Consensus.Two_phase.algorithm
      ~topology:(Amac.Topology.clique 2)
      ~inputs:[| 0; 1 |]
  in
  Alcotest.(check bool) "corrected never disagrees (0 crashes)" true
    (B.find_agreement_violation t ~max_crashes:0 ~max_depth:30 () = None)

let test_pp_step () =
  Alcotest.(check string) "deliver" "deliver(0->2)"
    (Format.asprintf "%a" B.pp_step (B.Deliver { sender = 0; receiver = 2 }));
  Alcotest.(check string) "ack" "ack(1)" (Format.asprintf "%a" B.pp_step (B.Ack 1));
  Alcotest.(check string) "crash" "crash(2)"
    (Format.asprintf "%a" B.pp_step (B.Crash 2))

let test_create_validation () =
  Alcotest.check_raises "input mismatch"
    (Invalid_argument "Bivalence.create: inputs length mismatches topology")
    (fun () -> ignore (explorer [| 0; 1 |]))

let test_explore_negative_depth () =
  Alcotest.check_raises "max_depth -1"
    (Invalid_argument "Bivalence.explore: max_depth -1 is negative")
    (fun () -> ignore (B.explore (explorer [| 0; 1; 1 |]) ~max_depth:(-1)))

let test_lemma_node_out_of_range () =
  Alcotest.check_raises "node 3 of 3"
    (Invalid_argument "Bivalence.check_lemma_3_1: node 3 outside [0, 3)")
    (fun () ->
      ignore (B.check_lemma_3_1 (explorer [| 0; 1; 1 |]) ~node:3 ~search_depth:4))

(* E7's numbers, pinned: the searches must keep exploring exactly these
   configurations and return exactly this schedule. *)
let show_schedule schedule =
  String.concat " " (List.map (Format.asprintf "%a" B.pp_step) schedule)

let test_e7_pinned () =
  let t = explorer [| 0; 1; 1 |] in
  let stats = B.explore t ~max_depth:8 in
  Alcotest.(check int) "total configs to depth 8" 1132 stats.total_configs;
  Alcotest.(check (array int)) "configs by depth"
    [| 1; 3; 7; 14; 29; 64; 136; 284; 594 |] stats.configs_by_depth;
  Alcotest.(check (array int)) "bivalent by depth"
    [| 1; 1; 1; 0; 0; 0; 0; 0; 0 |] stats.bivalent_by_depth;
  Alcotest.(check int) "deepest bivalent" 2 stats.deepest_bivalent;
  Alcotest.(check int) "total configs to depth 20" 103251
    (B.explore t ~max_depth:20).total_configs;
  let line =
    B.explore
      (B.create Consensus.Two_phase.algorithm ~topology:(Amac.Topology.line 3)
         ~inputs:[| 0; 1; 1 |])
      ~max_depth:20
  in
  Alcotest.(check int) "line:3 total configs" 4884 line.total_configs;
  Alcotest.(check int) "line:3 deepest bivalent" 14 line.deepest_bivalent;
  Alcotest.(check (option string)) "termination schedule"
    (Some
       "deliver(0->1) deliver(0->2) ack(0) deliver(0->1) deliver(0->2) ack(0) \
        deliver(1->0) deliver(1->2) ack(1) deliver(1->0) deliver(1->2) \
        deliver(2->0) deliver(2->1) ack(1) ack(2) deliver(2->0) crash(2)")
    (Option.map show_schedule
       (B.find_termination_violation t ~max_crashes:1 ~max_depth:25 ()))

(* Replay a returned schedule through Explore's semantics: every non-crash
   step is its sender's valid step, every crash hits a live node within the
   budget. Returns the final configuration. *)
module E = Mcheck.Explore

let replay ctx ~max_crashes schedule =
  let cfg, crashes =
    List.fold_left
      (fun (cfg, crashes) step ->
        let crashes =
          match step with
          | B.Crash u ->
              if E.crashed cfg u then Alcotest.failf "crash(%d) of a dead node" u;
              crashes + 1
          | B.Deliver { sender; _ } | B.Ack sender ->
              if E.valid_step cfg sender <> Some step then
                Alcotest.failf "%s is not %d's valid step"
                  (Format.asprintf "%a" B.pp_step step) sender;
              crashes
        in
        (E.apply ctx cfg step, crashes))
      (E.initial ctx, 0) schedule
  in
  if crashes > max_crashes then
    Alcotest.failf "%d crashes over a budget of %d" crashes max_crashes;
  cfg

(* Decision values reachable by crash-free valid steps, by plain DFS. *)
let reachable ctx ~n cfg =
  let seen = Hashtbl.create 1024 in
  let zero = ref false and one = ref false in
  let rec go cfg =
    let k = E.key ctx cfg in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      for i = 0 to n - 1 do
        (match E.decided cfg i with
        | Some 0 -> zero := true
        | Some _ -> one := true
        | None -> ());
        Option.iter (fun s -> go (E.apply ctx cfg s)) (E.valid_step cfg i)
      done
    end
  in
  go cfg;
  (!zero, !one)

let test_replay_schedules () =
  let algorithm = Consensus.Two_phase.algorithm in
  let instances =
    [ (Amac.Topology.clique 2, [| 0; 1 |]); (Amac.Topology.clique 3, [| 0; 1; 1 |]) ]
    @ List.init 8 (fun mask ->
          (Amac.Topology.line 3, Array.init 3 (fun i -> (mask lsr i) land 1)))
  in
  let found = ref 0 in
  List.iter
    (fun (topology, inputs) ->
      let n = Array.length inputs in
      let t = B.create algorithm ~topology ~inputs in
      let ctx = E.context algorithm ~topology ~inputs in
      let nodes = List.init n Fun.id in
      let check_search name result target =
        match result with
        | None -> ()
        | Some schedule ->
            incr found;
            let cfg = replay ctx ~max_crashes:1 schedule in
            if not (target cfg) then
              Alcotest.failf "%s schedule misses its target: %s" name
                (show_schedule schedule)
      in
      check_search "termination"
        (B.find_termination_violation t ~max_crashes:1 ~max_depth:25
           ~max_configs:20_000 ())
        (fun cfg ->
          List.for_all (fun i -> E.valid_step cfg i = None) nodes
          && List.exists
               (fun i -> (not (E.crashed cfg i)) && E.decided cfg i = None)
               nodes);
      check_search "agreement"
        (B.find_agreement_violation t ~max_crashes:1 ~max_depth:25
           ~max_configs:20_000 ())
        (fun cfg ->
          List.mem (Some 0) (List.map (E.decided cfg) nodes)
          && List.mem (Some 1) (List.map (E.decided cfg) nodes));
      List.iter
        (fun node ->
          match B.check_lemma_3_1 t ~node ~search_depth:8 with
          | None -> ()
          | Some schedule -> (
              incr found;
              let cfg = replay ctx ~max_crashes:0 schedule in
              match E.valid_step cfg node with
              | None -> Alcotest.failf "lemma 3.1: node %d has no valid step" node
              | Some step ->
                  if reachable ctx ~n (E.apply ctx cfg step) <> (true, true) then
                    Alcotest.failf "lemma 3.1: node %d's step is not bivalent"
                      node))
        nodes)
    instances;
  Alcotest.(check bool) "some schedules replayed" true (!found > 10)

(* Property: initial verdict of a unanimous vector is always univalent of
   that value, across n. *)
let prop_unanimity_univalent =
  (* n capped at 3: valency is an exhaustive search and the valid-step
     space grows super-exponentially in n. *)
  QCheck.Test.make ~name:"unanimous inputs are univalent" ~count:8
    QCheck.(pair (int_range 2 3) bool)
    (fun (n, bit) ->
      let v = if bit then 1 else 0 in
      B.initial_verdict (explorer ~n (Array.make n v)) = B.Univalent v)

let () =
  Alcotest.run "bivalence"
    [
      ( "valency",
        [
          Alcotest.test_case "unanimous univalent" `Quick
            test_unanimous_univalent;
          Alcotest.test_case "mixed bivalent" `Quick test_mixed_bivalent;
          Alcotest.test_case "two nodes" `Quick test_two_node_bivalent;
          Alcotest.test_case "explore stats" `Quick test_explore_stats;
          Alcotest.test_case "bivalence dies without crashes" `Quick
            test_bivalence_dies_without_crashes;
          Alcotest.test_case "lemma 3.1 witnesses" `Quick
            test_lemma_3_1_witness;
        ] );
      ( "crashes",
        [
          Alcotest.test_case "one crash kills termination" `Quick
            test_one_crash_kills_termination;
          Alcotest.test_case "no violation without crashes" `Quick
            test_no_termination_violation_without_crashes;
          Alcotest.test_case "agreement survives one crash" `Slow
            test_agreement_survives_one_crash;
          Alcotest.test_case "corrected never disagrees" `Quick
            test_literal_two_phase_disagrees_under_crash_free_steps;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "E7 values pinned" `Quick test_e7_pinned;
          Alcotest.test_case "returned schedules replay" `Quick
            test_replay_schedules;
        ] );
      ( "misc",
        [
          Alcotest.test_case "pp_step" `Quick test_pp_step;
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "explore rejects a negative depth" `Quick
            test_explore_negative_depth;
          Alcotest.test_case "lemma 3.1 rejects an unknown node" `Quick
            test_lemma_node_out_of_range;
          QCheck_alcotest.to_alcotest prop_unanimity_univalent;
        ] );
    ]
