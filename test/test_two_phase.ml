(* Two-phase consensus (Algorithm 1, Sec 4.1). *)

let run ?identities ?(algorithm = Consensus.Two_phase.algorithm) ~n ~scheduler
    inputs =
  Consensus.Runner.run algorithm ?identities ~give_n:false
    ~topology:(Amac.Topology.clique n) ~scheduler ~inputs

let test_unanimous () =
  List.iter
    (fun value ->
      let result =
        run ~n:5 ~scheduler:Amac.Scheduler.synchronous
          (Consensus.Runner.inputs_all ~n:5 value)
      in
      Alcotest.(check bool) "ok" true (Consensus.Checker.ok result.report);
      Alcotest.(check (list int)) "decides the input" [ value ]
        result.report.decided_values)
    [ 0; 1 ]

let test_mixed_synchronous () =
  let result =
    run ~n:6 ~scheduler:Amac.Scheduler.synchronous
      (Consensus.Runner.inputs_alternating ~n:6)
  in
  Alcotest.(check bool) "ok" true (Consensus.Checker.ok result.report);
  (* Lock-step: everyone sees both values in phase 1, all bivalent, default
     1 wins. *)
  Alcotest.(check (list int)) "default 1" [ 1 ] result.report.decided_values

let test_single_node () =
  let result =
    run ~n:1 ~scheduler:Amac.Scheduler.synchronous [| 0 |]
  in
  Alcotest.(check bool) "ok" true (Consensus.Checker.ok result.report);
  Alcotest.(check (list int)) "own value" [ 0 ] result.report.decided_values

let test_two_nodes_conflict () =
  let result = run ~n:2 ~scheduler:Amac.Scheduler.synchronous [| 0; 1 |] in
  Alcotest.(check bool) "ok" true (Consensus.Checker.ok result.report)

let test_time_bound_synchronous () =
  (* Two broadcast cycles at F_ack = 1: decisions by t = 2 + slack for the
     witness wait; under the synchronous scheduler witnesses are already
     covered, so exactly 2. *)
  let result =
    run ~n:8 ~scheduler:Amac.Scheduler.synchronous
      (Consensus.Runner.inputs_alternating ~n:8)
  in
  Alcotest.(check (option int)) "2 ticks" (Some 2) result.decision_time

let test_time_bound_fixed () =
  (* At fixed delay F the two phases take exactly 2F. *)
  List.iter
    (fun fack ->
      let result =
        run ~n:5
          ~scheduler:(Amac.Scheduler.fixed ~delay:fack)
          (Consensus.Runner.inputs_alternating ~n:5)
      in
      match result.decision_time with
      | Some t ->
          if t > 3 * fack then
            Alcotest.failf "decision at %d exceeds 3*F_ack=%d" t (3 * fack)
      | None -> Alcotest.fail "no decision")
    [ 1; 2; 5; 13 ]

let test_time_independent_of_n () =
  (* O(F_ack), not O(n): decision times must not grow with n. *)
  let time n =
    let result =
      run ~n ~scheduler:(Amac.Scheduler.fixed ~delay:3)
        (Consensus.Runner.inputs_alternating ~n)
    in
    Option.get result.decision_time
  in
  Alcotest.(check int) "n=4 equals n=64" (time 4) (time 64)

let test_slow_node_still_agrees () =
  (* One straggler delays everyone's witness wait but not agreement. *)
  let result =
    run ~n:5
      ~scheduler:(Amac.Scheduler.slow_node ~fack:20 ~node:3)
      [| 1; 1; 1; 0; 1 |]
  in
  Alcotest.(check bool) "ok" true (Consensus.Checker.ok result.report)

let test_shuffled_ids () =
  let rng = Amac.Rng.create 77 in
  let identities = Amac.Node_id.identity_assignment ~n:7 ~kind:(`Shuffled rng) in
  let result =
    run ~n:7 ~identities
      ~scheduler:(Amac.Scheduler.random (Amac.Rng.create 3) ~fack:6)
      (Consensus.Runner.inputs_alternating ~n:7)
  in
  Alcotest.(check bool) "ok with shuffled ids" true
    (Consensus.Checker.ok result.report)

let test_literal_violates () =
  let demo = Lowerbound.Erratum.two_phase_demo () in
  Alcotest.(check bool) "literal pseudocode violates agreement" false
    demo.literal_report.agreement

let test_corrected_survives_erratum_schedule () =
  let demo = Lowerbound.Erratum.two_phase_demo () in
  Alcotest.(check bool) "corrected rule is fine" true
    (Consensus.Checker.ok demo.corrected_report)

(* The central property: for every n, scheduler seed and input vector,
   two-phase consensus holds all four properties — without knowledge of n. *)
let prop_consensus_random_schedules =
  QCheck.Test.make ~name:"two-phase solves consensus (random schedules)"
    ~count:400
    QCheck.(
      quad (int_range 1 12) small_int (int_range 1 10)
        (list_of_size (Gen.return 12) bool))
    (fun (n, seed, fack, input_bits) ->
      let inputs =
        Array.init n (fun i -> if List.nth input_bits i then 1 else 0)
      in
      let scheduler = Amac.Scheduler.random (Amac.Rng.create seed) ~fack in
      let result = run ~n ~scheduler inputs in
      Consensus.Checker.ok result.report)

(* Decision time is always within 3 F_ack (2 broadcasts + witness wait,
   each bounded by F_ack), independent of n. *)
let prop_time_bound =
  QCheck.Test.make ~name:"two-phase decides within 3*F_ack" ~count:300
    QCheck.(triple (int_range 1 16) small_int (int_range 1 8))
    (fun (n, seed, fack) ->
      let scheduler = Amac.Scheduler.random (Amac.Rng.create seed) ~fack in
      let result = run ~n ~scheduler (Consensus.Runner.inputs_alternating ~n) in
      match result.decision_time with
      | Some t -> t <= 3 * fack
      | None -> false)

(* Messages carry exactly one id. *)
let prop_message_size =
  QCheck.Test.make ~name:"two-phase messages carry 1 id" ~count:100
    QCheck.(pair (int_range 2 10) small_int)
    (fun (n, seed) ->
      let scheduler = Amac.Scheduler.random (Amac.Rng.create seed) ~fack:4 in
      let result = run ~n ~scheduler (Consensus.Runner.inputs_alternating ~n) in
      result.outcome.max_ids_per_message = 1)

(* The handlers' definitions before they became direct recursions, kept
   as the oracle: [received] appends R1 and R2, the witnesses are a
   [sort_uniq] over it, and the scans are closures over [List.exists] and
   [List.for_all]. The state fingerprint is the same fold as the hooks'. *)
module Oracle = struct
  open Consensus.Two_phase
  module F = Amac.Fingerprint

  type phase = In_phase1 | In_phase2 | Awaiting_witnesses | Finished

  type state = {
    mutable phase : phase;
    mutable r1 : msg list;
    mutable r2 : msg list;
    mutable status : status;
    mutable witnesses : int list;
  }

  let my_id (ctx : Amac.Algorithm.ctx) = Amac.Node_id.unique_exn ctx.id

  let init (ctx : Amac.Algorithm.ctx) =
    let mine = Phase1 { id = my_id ctx; value = ctx.input } in
    let state =
      { phase = In_phase1; r1 = [ mine ]; r2 = []; status = Bivalent;
        witnesses = [] }
    in
    (state, [ Amac.Algorithm.Broadcast mine ])

  let msg_id = function Phase1 { id; _ } | Phase2 { id; _ } -> id
  let received state = state.r1 @ state.r2

  let witnesses_covered state =
    let phase2_in id =
      List.exists (function Phase2 { id = i; _ } -> i = id | Phase1 _ -> false)
    in
    List.for_all
      (fun id -> phase2_in id state.r1 || phase2_in id state.r2)
      state.witnesses

  let decision ~scope state =
    let pool =
      match scope with `R1_and_r2 -> received state | `R2 -> state.r2
    in
    let rec find = function
      | [] -> 1
      | Phase2 { status = Decided_value v; _ } :: _ -> v
      | (Phase2 { status = Bivalent; _ } | Phase1 _) :: rest -> find rest
    in
    find pool

  let maybe_finish ~scope state =
    if state.phase = Awaiting_witnesses && witnesses_covered state then begin
      state.phase <- Finished;
      [ Amac.Algorithm.Decide (decision ~scope state) ]
    end
    else []

  let on_receive ~scope state msg =
    match state.phase with
    | In_phase1 ->
        state.r1 <- msg :: state.r1;
        []
    | In_phase2 ->
        state.r2 <- msg :: state.r2;
        []
    | Awaiting_witnesses -> (
        match msg with
        | Phase2 _ ->
            state.r2 <- msg :: state.r2;
            maybe_finish ~scope state
        | Phase1 _ -> [])
    | Finished -> []

  let compute_status (ctx : Amac.Algorithm.ctx) state =
    let contrary = function
      | Phase1 { value; _ } -> value <> ctx.input
      | Phase2 { status = Bivalent; _ } -> true
      | Phase2 { status = Decided_value _; _ } -> false
    in
    if List.exists contrary state.r1 then Bivalent else Decided_value ctx.input

  let on_ack ~scope (ctx : Amac.Algorithm.ctx) state =
    match state.phase with
    | In_phase1 ->
        state.status <- compute_status ctx state;
        state.phase <- In_phase2;
        let mine = Phase2 { id = my_id ctx; status = state.status } in
        state.r2 <- [ mine ];
        [ Amac.Algorithm.Broadcast mine ]
    | In_phase2 ->
        state.phase <- Awaiting_witnesses;
        state.witnesses <-
          List.sort_uniq Int.compare (List.map msg_id (received state));
        maybe_finish ~scope state
    | Awaiting_witnesses | Finished -> []

  let fp_status status acc =
    match status with
    | Bivalent -> F.int 0 acc
    | Decided_value v -> acc |> F.int 1 |> F.int v

  let fingerprint fp_msg state =
    F.empty
    |> F.int
         (match state.phase with
         | In_phase1 -> 0
         | In_phase2 -> 1
         | Awaiting_witnesses -> 2
         | Finished -> 3)
    |> F.list fp_msg state.r1 |> F.list fp_msg state.r2
    |> fp_status state.status
    |> F.list F.int state.witnesses
    |> F.to_int
end

type event = Receive of Consensus.Two_phase.msg | Ack

(* One node of either variant, fed a random run of receipts (ids 0..5,
   repeats included) and acks: after every event both handlers return the
   same actions and leave states with the same fingerprint. *)
let prop_handlers_match_oracle =
  let open Consensus.Two_phase in
  let open QCheck.Gen in
  let msg =
    let* id = int_range 0 5 in
    oneof
      [
        map (fun value -> Phase1 { id; value }) (int_range 0 1);
        map
          (fun status -> Phase2 { id; status })
          (oneofl [ Bivalent; Decided_value 0; Decided_value 1 ]);
      ]
  in
  let event = frequency [ (4, map (fun m -> Receive m) msg); (1, return Ack) ] in
  let case =
    quad (int_range 0 5) (int_range 0 1) bool (list_size (int_range 0 40) event)
  in
  let print (id, input, printed, events) =
    Printf.sprintf "id=%d input=%d literal=%b [%s]" id input printed
      (String.concat "; "
         (List.map (function Receive m -> pp_msg m | Ack -> "ack") events))
  in
  QCheck.Test.make ~name:"two-phase handlers match the append-and-sort oracle"
    ~count:1000 (QCheck.make ~print case)
    (fun (id, input, printed, events) ->
      let algorithm, scope =
        if printed then (literal, `R2) else (algorithm, `R1_and_r2)
      in
      let hooks = Option.get algorithm.hooks in
      let fp st = Amac.Fingerprint.(to_int (hooks.fingerprint st empty)) in
      let ctx =
        {
          Amac.Algorithm.id = Amac.Node_id.Id id;
          n = None;
          diameter = None;
          degree = 5;
          input;
        }
      in
      let st, actions = algorithm.init ctx in
      let ost, oactions = Oracle.init ctx in
      let same actions oactions =
        actions = oactions
        && fp st = Oracle.fingerprint hooks.fingerprint_msg ost
      in
      same actions oactions
      && List.for_all
           (function
             | Receive m ->
                 same
                   (algorithm.on_receive ctx st m)
                   (Oracle.on_receive ~scope ost m)
             | Ack ->
                 same (algorithm.on_ack ctx st) (Oracle.on_ack ~scope ctx ost))
           events)

let () =
  Alcotest.run "two_phase"
    [
      ( "unit",
        [
          Alcotest.test_case "unanimous inputs" `Quick test_unanimous;
          Alcotest.test_case "mixed synchronous" `Quick test_mixed_synchronous;
          Alcotest.test_case "single node" `Quick test_single_node;
          Alcotest.test_case "two nodes conflict" `Quick
            test_two_nodes_conflict;
          Alcotest.test_case "time bound (sync)" `Quick
            test_time_bound_synchronous;
          Alcotest.test_case "time bound (fixed)" `Quick test_time_bound_fixed;
          Alcotest.test_case "time independent of n" `Quick
            test_time_independent_of_n;
          Alcotest.test_case "slow node" `Quick test_slow_node_still_agrees;
          Alcotest.test_case "shuffled ids" `Quick test_shuffled_ids;
          Alcotest.test_case "erratum: literal violates" `Quick
            test_literal_violates;
          Alcotest.test_case "erratum: corrected ok" `Quick
            test_corrected_survives_erratum_schedule;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_consensus_random_schedules;
          QCheck_alcotest.to_alcotest prop_time_bound;
          QCheck_alcotest.to_alcotest prop_message_size;
          QCheck_alcotest.to_alcotest prop_handlers_match_oracle;
        ] );
    ]
