(* Scheduler contract tests: every scheduler must plan deliveries within
   (now, ack] and the ack within F_ack; deliveries must cover exactly the
   neighbor set. *)

module S = Amac.Scheduler

let check_contract ~now ~neighbors (sched : S.t) =
  let plan = sched.plan ~now ~sender:0 ~neighbors in
  if plan.ack_at <= now then Alcotest.fail "ack not after broadcast";
  if plan.ack_at > now + sched.fack then Alcotest.fail "ack beyond F_ack";
  let planned = List.map fst plan.receives |> List.sort Int.compare in
  Alcotest.(check (list int)) "covers neighbors" neighbors planned;
  List.iter
    (fun (_, time) ->
      if time <= now || time > plan.ack_at then
        Alcotest.fail "delivery outside (now, ack]")
    plan.receives;
  plan

let neighbors = [ 1; 2; 3 ]

let test_synchronous () =
  let plan = check_contract ~now:10 ~neighbors S.synchronous in
  Alcotest.(check int) "ack next tick" 11 plan.ack_at;
  List.iter
    (fun (_, t) -> Alcotest.(check int) "delivery next tick" 11 t)
    plan.receives

let test_fixed () =
  let plan = check_contract ~now:5 ~neighbors (S.fixed ~delay:7) in
  Alcotest.(check int) "ack at now+7" 12 plan.ack_at

let test_max_delay () =
  let plan = check_contract ~now:0 ~neighbors (S.max_delay ~fack:9) in
  Alcotest.(check int) "ack at fack" 9 plan.ack_at;
  List.iter
    (fun (_, t) -> Alcotest.(check int) "delivery at fack" 9 t)
    plan.receives

let test_random_contract () =
  let sched = S.random (Amac.Rng.create 5) ~fack:12 in
  for now = 0 to 200 do
    ignore (check_contract ~now ~neighbors sched)
  done

let test_jittered_contract () =
  let sched = S.jittered (Amac.Rng.create 5) ~fack:10 ~spread:3 in
  for now = 0 to 200 do
    ignore (check_contract ~now ~neighbors sched)
  done

let test_jittered_validation () =
  Alcotest.check_raises "spread >= fack"
    (Invalid_argument "Scheduler.jittered: need 0 <= spread < fack")
    (fun () -> ignore (S.jittered (Amac.Rng.create 1) ~fack:3 ~spread:3))

(* The static per-edge fixture other suites build split-delay runs from
   must keep the contract, with each delay clamped into [1, fack]. *)
let test_per_edge () =
  let sched =
    Fixtures.per_edge ~name:"asym" ~fack:10 ~delay:(fun ~sender:_ ~receiver ->
        if receiver = 2 then 10 else 1)
  in
  let plan = check_contract ~now:0 ~neighbors sched in
  Alcotest.(check int) "slow edge" 10 (List.assoc 2 plan.receives);
  Alcotest.(check int) "fast edge" 1 (List.assoc 1 plan.receives);
  Alcotest.(check int) "ack with slowest" 10 plan.ack_at

let test_per_edge_clamps () =
  let sched =
    Fixtures.per_edge ~name:"wild" ~fack:5 ~delay:(fun ~sender:_ ~receiver ->
        if receiver = 1 then 100 else -3)
  in
  let plan = check_contract ~now:0 ~neighbors sched in
  Alcotest.(check int) "clamped high" 5 (List.assoc 1 plan.receives);
  Alcotest.(check int) "clamped low" 1 (List.assoc 2 plan.receives)

let test_delayed_cut () =
  let cut ~sender ~receiver = sender = 0 && receiver = 2 in
  let sched = S.delayed_cut ~base_fack:1 ~until:50 ~cut in
  let plan = check_contract ~now:3 ~neighbors sched in
  Alcotest.(check int) "cut edge waits" 50 (List.assoc 2 plan.receives);
  Alcotest.(check int) "other edges next tick" 4 (List.assoc 1 plan.receives);
  Alcotest.(check int) "ack with slowest" 50 plan.ack_at;
  (* After the silence window, everything is synchronous again. *)
  let plan = check_contract ~now:60 ~neighbors sched in
  Alcotest.(check int) "post-window" 61 (List.assoc 2 plan.receives)

let test_delayed_cut_fack_covers_until () =
  let sched =
    S.delayed_cut ~base_fack:1 ~until:99 ~cut:(fun ~sender:_ ~receiver:_ ->
        true)
  in
  Alcotest.(check bool) "fack >= until" true (sched.fack >= 99)

let test_slow_node () =
  let sched = S.slow_node ~fack:8 ~node:0 in
  let plan = check_contract ~now:0 ~neighbors sched in
  Alcotest.(check int) "slow sender acks at fack" 8 plan.ack_at;
  let fast = sched.plan ~now:0 ~sender:1 ~neighbors:[ 0; 2 ] in
  Alcotest.(check int) "others ack next tick" 1 fast.ack_at

let test_bursty () =
  let sched = S.bursty ~fack:10 ~fast_len:5 ~slow_len:5 in
  let fast = check_contract ~now:2 ~neighbors sched in
  Alcotest.(check int) "fast epoch" 3 fast.ack_at;
  let slow = check_contract ~now:7 ~neighbors sched in
  Alcotest.(check int) "slow epoch" 17 slow.ack_at;
  let wrapped = check_contract ~now:11 ~neighbors sched in
  Alcotest.(check int) "period wraps" 12 wrapped.ack_at;
  Alcotest.check_raises "epoch validation"
    (Invalid_argument "Scheduler.bursty: epochs must be >= 1 tick") (fun () ->
      ignore (S.bursty ~fack:4 ~fast_len:0 ~slow_len:3))

let test_make_validation () =
  Alcotest.check_raises "fack >= 1"
    (Invalid_argument "Scheduler.make: fack must be >= 1") (fun () ->
      ignore
        (S.make ~name:"bad" ~fack:0 (fun ~now ~sender:_ ~neighbors:_ ->
             { S.receives = []; ack_at = now + 1 })))

let test_record_captures_relative_delays () =
  let recording, recorded = S.record (S.fixed ~delay:3) in
  ignore (recording.plan ~now:10 ~sender:0 ~neighbors);
  ignore (recording.plan ~now:25 ~sender:1 ~neighbors:[ 0 ]);
  match recorded () with
  | [ first; second ] ->
      Alcotest.(check int) "ack delay relative" 3 first.S.ack_delay;
      Alcotest.(check (list (pair int int)))
        "delivery delays relative"
        [ (1, 3); (2, 3); (3, 3) ]
        first.S.delays;
      Alcotest.(check (list (pair int int))) "broadcast order" [ (0, 3) ]
        second.S.delays
  | other ->
      Alcotest.failf "expected 2 decisions, got %d" (List.length other)

let test_record_replay_roundtrip () =
  (* A recorded random run, replayed, is the same scheduler as data. *)
  let recording, recorded = S.record (S.random (Amac.Rng.create 11) ~fack:9) in
  let plans =
    List.map (fun now -> recording.plan ~now ~sender:0 ~neighbors) [ 0; 4; 20 ]
  in
  let replayed = S.replay (recorded ()) in
  List.iteri
    (fun i now ->
      let original = List.nth plans i in
      let again = replayed.plan ~now ~sender:0 ~neighbors in
      Alcotest.(check int) "same ack" original.S.ack_at again.S.ack_at;
      Alcotest.(check (list (pair int int)))
        "same deliveries"
        (List.sort compare original.S.receives)
        (List.sort compare again.S.receives))
    [ 0; 4; 20 ]

let test_replay_total () =
  (* Replay never breaks the contract: delays are clamped into (now, ack],
     neighbors missing from the decision receive at the ack, and an
     exhausted list falls back to uniform delivery. *)
  let replayed =
    S.replay [ { S.ack_delay = 2; delays = [ (1, 5); (2, 0) ] } ]
  in
  let plan = check_contract ~now:10 ~neighbors replayed in
  Alcotest.(check int) "ack at recorded delay" 12 plan.ack_at;
  Alcotest.(check int) "overlong delay clamped to ack" 12
    (List.assoc 1 plan.receives);
  Alcotest.(check int) "zero delay clamped to 1 tick" 11
    (List.assoc 2 plan.receives);
  Alcotest.(check int) "missing neighbor delivered at ack" 12
    (List.assoc 3 plan.receives);
  let exhausted = check_contract ~now:30 ~neighbors replayed in
  Alcotest.(check int) "fallback after exhaustion" 31 exhausted.ack_at;
  Alcotest.check_raises "fallback validation"
    (Invalid_argument "Scheduler.replay: fallback_delay must be >= 1")
    (fun () -> ignore (S.replay ~fallback_delay:0 []))

let unreliable_plan_exn sched = Option.get sched.S.unreliable_plan

let test_bernoulli_window () =
  (* Every planned unreliable delivery lands in (now, ack_at], on a distinct
     candidate. *)
  let sched =
    S.bernoulli_unreliable (Amac.Rng.create 3) ~p:0.5 (S.max_delay ~fack:7)
  in
  let plan = unreliable_plan_exn sched in
  for now = 0 to 200 do
    let ack_at = now + 7 in
    let deliveries = plan ~now ~sender:0 ~candidates:[ 4; 5; 6 ] ~ack_at in
    List.iter
      (fun (v, t) ->
        if t <= now || t > ack_at then
          Alcotest.failf "delivery at %d outside (%d, %d]" t now ack_at;
        if not (List.mem v [ 4; 5; 6 ]) then
          Alcotest.failf "non-candidate %d" v)
      deliveries;
    let targets = List.map fst deliveries in
    Alcotest.(check (list int)) "each candidate at most once"
      (List.sort_uniq Int.compare targets)
      (List.sort Int.compare targets)
  done

let test_bernoulli_edge_probabilities () =
  let never =
    S.bernoulli_unreliable (Amac.Rng.create 1) ~p:0.0 S.synchronous
  in
  let always =
    S.bernoulli_unreliable (Amac.Rng.create 1) ~p:1.0 S.synchronous
  in
  for now = 0 to 50 do
    Alcotest.(check (list (pair int int)))
      "p=0 delivers nothing" []
      ((unreliable_plan_exn never) ~now ~sender:0 ~candidates:[ 1; 2 ]
         ~ack_at:(now + 1));
    Alcotest.(check (list int))
      "p=1 delivers to every candidate" [ 1; 2 ]
      (List.map fst
         ((unreliable_plan_exn always) ~now ~sender:0 ~candidates:[ 1; 2 ]
            ~ack_at:(now + 1))
       |> List.sort Int.compare)
  done;
  Alcotest.check_raises "p validation"
    (Invalid_argument "Scheduler.bernoulli_unreliable: p must be in [0, 1]")
    (fun () ->
      ignore (S.bernoulli_unreliable (Amac.Rng.create 1) ~p:1.5 S.synchronous))

let prop_random_plan_valid =
  QCheck.Test.make ~name:"random scheduler always honours the contract"
    ~count:300
    QCheck.(triple small_int (int_range 1 20) (int_range 0 1000))
    (fun (seed, fack, now) ->
      let sched = S.random (Amac.Rng.create seed) ~fack in
      let plan = sched.plan ~now ~sender:0 ~neighbors in
      plan.ack_at > now
      && plan.ack_at <= now + fack
      && List.for_all
           (fun (_, t) -> t > now && t <= plan.ack_at)
           plan.receives)

let () =
  Alcotest.run "scheduler"
    [
      ( "contract",
        [
          Alcotest.test_case "synchronous" `Quick test_synchronous;
          Alcotest.test_case "fixed" `Quick test_fixed;
          Alcotest.test_case "max_delay" `Quick test_max_delay;
          Alcotest.test_case "random" `Quick test_random_contract;
          Alcotest.test_case "jittered" `Quick test_jittered_contract;
          Alcotest.test_case "jittered validation" `Quick
            test_jittered_validation;
          Alcotest.test_case "per_edge" `Quick test_per_edge;
          Alcotest.test_case "per_edge clamps" `Quick test_per_edge_clamps;
          Alcotest.test_case "delayed_cut" `Quick test_delayed_cut;
          Alcotest.test_case "delayed_cut fack" `Quick
            test_delayed_cut_fack_covers_until;
          Alcotest.test_case "slow_node" `Quick test_slow_node;
          Alcotest.test_case "bursty" `Quick test_bursty;
          Alcotest.test_case "make validation" `Quick test_make_validation;
        ] );
      ( "record/replay",
        [
          Alcotest.test_case "record captures relative delays" `Quick
            test_record_captures_relative_delays;
          Alcotest.test_case "record/replay roundtrip" `Quick
            test_record_replay_roundtrip;
          Alcotest.test_case "replay is total" `Quick test_replay_total;
        ] );
      ( "unreliable",
        [
          Alcotest.test_case "bernoulli window" `Quick test_bernoulli_window;
          Alcotest.test_case "bernoulli p=0 / p=1" `Quick
            test_bernoulli_edge_probabilities;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_random_plan_valid ]);
    ]
