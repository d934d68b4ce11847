(* The causal provenance DAG (PR 8): the recorder's own validation, the
   structural invariants [Provenance.check] promises on real engine runs,
   vertex counts against the engine's outcome counters, and the export
   determinism contract — byte-identical DAG JSON across worker-pool
   parallelism (--jobs 1 vs 2) and under scheduler record/replay. *)

module P = Obs.Provenance

(* ---------- recorder unit tests ---------- *)

let test_record_validation () =
  let t = P.create () in
  let b = P.record t ~kind:(P.Boot { incarnation = 0 }) ~node:0 ~time:0 ~cause:(-1) in
  Alcotest.(check int) "first id" 0 b;
  let bc = P.record t ~kind:P.Broadcast ~node:0 ~time:3 ~cause:b in
  Alcotest.(check int) "second id" 1 bc;
  Alcotest.(check int) "length" 2 (P.length t);
  (* A forward (not-yet-recorded) cause would create a cycle escape hatch. *)
  Alcotest.check_raises "forward cause rejected"
    (Invalid_argument "Provenance.record: cause 2 not in [-1, 2)") (fun () ->
      ignore (P.record t ~kind:P.Ack ~node:0 ~time:4 ~cause:2));
  Alcotest.check_raises "cause below -1 rejected"
    (Invalid_argument "Provenance.record: cause -7 not in [-1, 2)") (fun () ->
      ignore (P.record t ~kind:P.Ack ~node:0 ~time:4 ~cause:(-7)));
  let v = P.get t 1 in
  Alcotest.(check int) "get returns vertex" b v.P.cause

let test_store_grows () =
  let t = P.create () in
  (* Push past the initial capacity (64 vertices) and far beyond. *)
  for i = 0 to 999 do
    let cause = if i = 0 then -1 else i - 1 in
    let kind = if i = 0 then P.Boot { incarnation = 0 } else P.Deliver { sender = 0 } in
    let kind = if i > 0 && i mod 2 = 0 then P.Broadcast else kind in
    ignore (P.record t ~kind ~node:0 ~time:i ~cause)
  done;
  Alcotest.(check int) "length after growth" 1000 (P.length t);
  Alcotest.(check int) "last vertex intact" 998 (P.get t 999).P.cause

(* ---------- the flat store ---------- *)

(* Fields over the whole int range, not just engine-sized values. *)
let gen_field =
  QCheck.Gen.(
    oneof
      [ int; small_signed_int; oneofl [ 0; -1; 1 lsl 43; max_int; min_int ] ])

let gen_kind =
  QCheck.Gen.(
    oneof
      [
        map (fun incarnation -> P.Boot { incarnation }) gen_field;
        map (fun payload -> P.Inject { payload }) gen_field;
        return P.Broadcast;
        map (fun sender -> P.Deliver { sender }) gen_field;
        return P.Ack;
        map (fun value -> P.Decide { value }) gen_field;
      ])

(* kind, node, time, and a pick of the cause among [-1] and the ids
   recorded before. *)
let gen_records =
  QCheck.Gen.(
    list_size (int_range 0 700)
      (quad gen_kind (int_range 0 1_000_000) gen_field nat))

let prop_store_round_trip =
  QCheck.Test.make ~count:200
    ~name:"get returns what record took, in iter order, across growth"
    (QCheck.make
       ~print:(fun records -> Printf.sprintf "%d records" (List.length records))
       gen_records)
    (fun records ->
      let t = P.create () in
      let expected =
        List.mapi
          (fun id (kind, node, time, pick) ->
            let cause = (pick mod (id + 1)) - 1 in
            let got = P.record t ~kind ~node ~time ~cause in
            { P.id = got; kind; node; time; cause })
          records
      in
      let iterated = ref [] in
      P.iter (fun v -> iterated := v :: !iterated) t;
      let len = P.length t in
      let rejected cause =
        match P.record t ~kind:P.Ack ~node:0 ~time:0 ~cause with
        | _ -> false
        | exception Invalid_argument msg ->
            msg
            = Printf.sprintf "Provenance.record: cause %d not in [-1, %d)"
                cause len
      in
      List.rev !iterated = expected
      && List.init len (P.get t) = expected
      && List.for_all
           (fun (v : P.vertex) ->
             P.kind t v.id = v.kind && P.node t v.id = v.node
             && P.time t v.id = v.time && P.cause t v.id = v.cause)
           expected
      && rejected len && rejected (-2) && rejected min_int
      && P.length t = len)

let test_check_catches_violations () =
  (* Deliver caused by a non-broadcast, broadcast caused by an ack, time
     running backwards — each must surface as a violation. *)
  let t = P.create () in
  let boot = P.record t ~kind:(P.Boot { incarnation = 0 }) ~node:0 ~time:0 ~cause:(-1) in
  let bad_deliver =
    P.record t ~kind:(P.Deliver { sender = 1 }) ~node:0 ~time:2 ~cause:boot
  in
  let bc = P.record t ~kind:P.Broadcast ~node:0 ~time:4 ~cause:bad_deliver in
  let ack = P.record t ~kind:P.Ack ~node:0 ~time:6 ~cause:bc in
  let bad_bc = P.record t ~kind:P.Broadcast ~node:0 ~time:7 ~cause:ack in
  (* The last vertex is doubly wrong: time runs backwards AND a broadcast
     is caused by another broadcast (not an informational event). *)
  ignore (P.record t ~kind:P.Broadcast ~node:0 ~time:3 ~cause:bad_bc);
  let violations = P.check t in
  Alcotest.(check int) "four violations" 4 (List.length violations);
  Alcotest.(check bool) "deliver-cause violation named" true
    (List.exists
       (fun s -> s = Printf.sprintf "vertex %d: delivery/ack not caused by a broadcast" bad_deliver)
       violations)

let test_check_accepts_wellformed () =
  let t = P.create () in
  let boot = P.record t ~kind:(P.Boot { incarnation = 0 }) ~node:0 ~time:0 ~cause:(-1) in
  let bc = P.record t ~kind:P.Broadcast ~node:0 ~time:0 ~cause:boot in
  let d = P.record t ~kind:(P.Deliver { sender = 0 }) ~node:1 ~time:2 ~cause:bc in
  ignore (P.record t ~kind:P.Ack ~node:0 ~time:3 ~cause:bc);
  ignore (P.record t ~kind:(P.Decide { value = 1 }) ~node:1 ~time:2 ~cause:d);
  Alcotest.(check (list string)) "no violations" [] (P.check t)

(* ---------- real-run invariants ---------- *)

let run_wpaxos ?faults ~seed ~n () =
  let prov = P.create () in
  let result =
    Consensus.Runner.run ?faults (Consensus.Wpaxos.make ())
      ~topology:(Amac.Topology.line n)
      ~scheduler:(Amac.Scheduler.random (Amac.Rng.create seed) ~fack:3)
      ~inputs:(Array.init n (fun i -> i mod 2))
      ~provenance:prov
  in
  (prov, result.Consensus.Runner.outcome)

let count_kind p f =
  let c = ref 0 in
  P.iter (fun v -> if f v.P.kind then incr c) p;
  !c

let test_run_invariants () =
  let prov, outcome = run_wpaxos ~seed:11 ~n:5 () in
  Alcotest.(check (list string)) "well-formed" [] (P.check prov);
  Alcotest.(check int) "one Deliver vertex per delivery"
    outcome.Amac.Engine.deliveries
    (count_kind prov (function P.Deliver _ -> true | _ -> false));
  Alcotest.(check int) "one Broadcast vertex per accepted broadcast"
    outcome.Amac.Engine.broadcasts
    (count_kind prov (function P.Broadcast -> true | _ -> false));
  Alcotest.(check int) "one Boot root per init" 5
    (count_kind prov (function P.Boot _ -> true | _ -> false));
  let decided =
    Array.to_list outcome.Amac.Engine.decisions
    |> List.filter Option.is_some |> List.length
  in
  Alcotest.(check int) "one Decide vertex per deciding node" decided
    (count_kind prov (function P.Decide _ -> true | _ -> false))

let test_run_invariants_crash_recovery () =
  let faults =
    [ Fault.Crash { node = 1; at = 5 }; Fault.Recover { node = 1; at = 60 } ]
  in
  let prov, outcome = run_wpaxos ~faults ~seed:4 ~n:4 () in
  Alcotest.(check (list string)) "well-formed under faults" [] (P.check prov);
  let boots = count_kind prov (function P.Boot _ -> true | _ -> false) in
  let incarnations =
    Array.fold_left ( + ) 0 outcome.Amac.Engine.incarnations
  in
  Alcotest.(check int) "one Boot per init + one per recovery"
    (4 + incarnations) boots;
  Alcotest.(check bool) "node 1 recovered (fixture is live)" true
    (incarnations > 0);
  (* The second incarnation's Boot must carry the bumped incarnation. *)
  Alcotest.(check bool) "recovery Boot records incarnation" true
    (List.exists
       (fun v ->
         match v.P.kind with
         | P.Boot { incarnation } -> v.P.node = 1 && incarnation = 1
         | _ -> false)
       (List.init (P.length prov) (P.get prov)))

(* ---------- export determinism ---------- *)

let dag_bytes seed =
  let prov, _ = run_wpaxos ~seed ~n:5 () in
  Obs.Json.to_string (P.to_json prov)

let test_export_identical_across_jobs () =
  (* The profile export must not depend on how many worker domains the
     harness uses: the same seeds map to the same bytes under --jobs 1
     and --jobs 2. *)
  let seeds = [| 1; 2; 3; 4 |] in
  let with_jobs domains =
    Par.with_pool ~domains (fun pool -> Par.map pool dag_bytes seeds)
  in
  let one = with_jobs 1 and two = with_jobs 2 in
  Array.iteri
    (fun i a ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: jobs 1 = jobs 2" seeds.(i))
        true (String.equal a two.(i)))
    one

let test_export_identical_under_replay () =
  (* Record the scheduler's decisions, replay them, and demand the same
     DAG bytes: provenance is a pure function of the event schedule. *)
  let run scheduler =
    let prov = P.create () in
    ignore
      (Consensus.Runner.run (Consensus.Wpaxos.make ())
         ~topology:(Amac.Topology.line 5)
         ~scheduler
         ~inputs:[| 1; 0; 1; 0; 1 |]
         ~provenance:prov);
    Obs.Json.to_string (P.to_json prov)
  in
  let recording, recorded =
    Amac.Scheduler.record (Amac.Scheduler.random (Amac.Rng.create 8) ~fack:3)
  in
  let original = run recording in
  let replayed = run (Amac.Scheduler.replay (recorded ())) in
  Alcotest.(check bool) "record = replay bytes" true
    (String.equal original replayed)

let () =
  Alcotest.run "provenance"
    [
      ( "recorder",
        [
          Alcotest.test_case "record validates causes" `Quick
            test_record_validation;
          Alcotest.test_case "store grows" `Quick test_store_grows;
          QCheck_alcotest.to_alcotest prop_store_round_trip;
          Alcotest.test_case "check catches violations" `Quick
            test_check_catches_violations;
          Alcotest.test_case "check accepts well-formed" `Quick
            test_check_accepts_wellformed;
        ] );
      ( "engine runs",
        [
          Alcotest.test_case "invariants on a clean run" `Quick
            test_run_invariants;
          Alcotest.test_case "invariants under crash-recovery" `Quick
            test_run_invariants_crash_recovery;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "identical across jobs 1 vs 2" `Quick
            test_export_identical_across_jobs;
          Alcotest.test_case "identical under record/replay" `Quick
            test_export_identical_under_replay;
        ] );
    ]
