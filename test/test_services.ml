(* The service kit that wPAXOS, the replicated log and flood-paxos share
   (Consensus.Services): Alg 3's stamp order, the response queue's
   invariant and routed dequeue, the hardened tick's schedules, and the
   receive handler's rank order on all three protocols. *)

module S = Consensus.Services

let pno tag proposer = { Consensus.Paxos_types.tag; proposer }

let stamp = Alcotest.(pair int int)

(* Stamps are ordered by counter, then by origin; every stamp joins the
   Lamport clock, and only a larger one is recorded, queued and refills
   the heartbeat budget. *)
let test_stamp_order () =
  let sv = S.create ~me:2 ~n:4 ~omega:2 ~patience:8 in
  S.local_change sv;
  Alcotest.check stamp "local stamp" (1, 2) sv.last_change;
  Alcotest.(check (option stamp)) "queued" (Some (1, 2)) sv.change_q;
  sv.change_q <- None;
  let heard counter origin =
    sv.patience_left <- 0;
    let news = S.on_change sv ~counter ~origin in
    Alcotest.(check bool)
      (Printf.sprintf "(%d,%d) refills iff news" counter origin)
      news
      (sv.patience_left > 0);
    news
  in
  Alcotest.(check bool) "tie, smaller origin" false (heard 1 1);
  Alcotest.(check bool) "the same stamp" false (heard 1 2);
  Alcotest.(check (option stamp)) "nothing queued" None sv.change_q;
  Alcotest.(check bool) "tie broken by the larger origin" true (heard 1 3);
  Alcotest.check stamp "recorded" (1, 3) sv.last_change;
  Alcotest.(check (option stamp)) "queued" (Some (1, 3)) sv.change_q;
  Alcotest.(check bool) "smaller counter, larger origin" false (heard 0 9);
  Alcotest.(check bool) "larger counter, smaller origin" true (heard 5 0);
  Alcotest.(check bool) "old news still joins the clock" false (heard 4 7);
  Alcotest.(check int) "clock" 5 sv.lamport;
  S.local_change sv;
  Alcotest.check stamp "next local stamp" (6, 2) sv.last_change

let contents sv =
  List.map
    (fun (e : int ref S.entry) -> (e.target, e.pno.tag, !(e.body)))
    sv.S.response_q

let queue = Alcotest.(list (triple int int int))

let sum into v =
  into := !into + !v;
  true

(* Enqueue merges into the first matching entry and keeps only the
   current leader's largest proposal number, also across a leader
   change. *)
let test_queue_invariant () =
  let sv = S.create ~me:0 ~n:5 ~omega:3 ~patience:8 in
  let enqueue ?(merge = sum) target tag count =
    S.enqueue sv ~merge ~target ~pno:(pno tag target) (ref count)
  in
  enqueue 3 1 1;
  enqueue 3 1 2;
  Alcotest.check queue "merged" [ (3, 1, 3) ] (contents sv);
  enqueue ~merge:(fun _ _ -> false) 3 1 4;
  Alcotest.check queue "merge refused" [ (3, 1, 3); (3, 1, 4) ] (contents sv);
  enqueue 3 1 5;
  Alcotest.check queue "first match absorbs"
    [ (3, 1, 8); (3, 1, 4) ]
    (contents sv);
  enqueue 3 2 1;
  Alcotest.check queue "a larger number prunes the smaller" [ (3, 2, 1) ]
    (contents sv);
  enqueue 3 1 6;
  enqueue 4 9 1;
  Alcotest.check queue "stale number and non-leader target pruned"
    [ (3, 2, 1) ] (contents sv);
  S.elect sv 4;
  Alcotest.check queue "leader change drops the old leader's" []
    (contents sv);
  Alcotest.(check (option int)) "announced" (Some 4) sv.leader_q;
  Alcotest.(check int) "watched" 4 (Fd.stats sv.fd).watched;
  enqueue 4 2 1;
  enqueue 4 3 1;
  enqueue 4 3 1;
  Alcotest.check queue "new leader's largest" [ (4, 3, 2) ] (contents sv)

(* Dequeue takes the first entry whose target has a parent, sends it to
   that parent, and keeps the skipped entries queued in order. *)
let test_routed_dequeue () =
  let sv = S.create ~me:0 ~n:8 ~omega:7 ~patience:8 in
  let entry target count = { S.target; pno = pno 1 target; body = ref count } in
  sv.response_q <- [ entry 5 1; entry 6 2; entry 7 3; entry 5 4 ];
  let emit dest (e : int ref S.entry) = (dest, e.target, !(e.body)) in
  Alcotest.(check bool) "nothing routable" true (S.dequeue sv ~emit = None);
  ignore (Consensus.Tree.improve sv.tree ~root:7 ~hops:0 ~sender:2);
  Alcotest.(check (option (triple int int int)))
    "first routable, to its parent" (Some (2, 7, 3))
    (S.dequeue sv ~emit);
  Alcotest.check queue "skipped entries stay, in order"
    [ (5, 1, 1); (6, 1, 2); (5, 1, 4) ]
    (contents sv);
  Alcotest.(check (option (triple int int int)))
    "no route left" None (S.dequeue sv ~emit)

(* Lemma 4.2's local step on the live path: acceptor responses queued
   with a protocol's merge. The body and merge below are wPAXOS's (and,
   with a second count, the replicated log's): responses of the same
   round and polarity to the same proposition fold into one entry whose
   count adds and whose prior and committed number take the maximum. *)
module P = Consensus.Paxos_types

type vote = {
  round : P.round;
  positive : bool;
  mutable count : int;
  mutable prior : P.prior option;
  mutable committed : P.pno option;
}

let merge_votes into v =
  into.round = v.round && into.positive = v.positive
  && begin
       into.count <- into.count + v.count;
       into.prior <- P.max_prior into.prior v.prior;
       into.committed <- P.max_committed into.committed v.committed;
       true
     end

let vote ?(round = P.Prepare_round) ?(positive = true) ?prior ?committed count
    =
  { round; positive; count; prior; committed }

let round_name = function P.Prepare_round -> "prep" | P.Propose_round -> "prop"

(* The queue as ((tag, round), (polarity, count)), in order. *)
let votes sv =
  List.map
    (fun (e : vote S.entry) ->
      ((e.pno.tag, round_name e.body.round), (e.body.positive, e.body.count)))
    sv.S.response_q

let vote_queue = Alcotest.(list (pair (pair int string) (pair bool int)))

let leader_queue () = S.create ~me:0 ~n:4 ~omega:3 ~patience:8

(* One class per (round, polarity): the same class merges, another
   round or polarity opens its own entry, and counts are kept. *)
let test_merge_classes () =
  let sv = leader_queue () in
  let enqueue v = S.enqueue sv ~merge:merge_votes ~target:3 ~pno:(pno 2 3) v in
  enqueue (vote 1);
  enqueue (vote ~positive:false 2);
  enqueue (vote 3);
  enqueue (vote ~round:P.Propose_round 4);
  Alcotest.check vote_queue "three classes, counts kept"
    [
      ((2, "prep"), (true, 4));
      ((2, "prep"), (false, 2));
      ((2, "prop"), (true, 4));
    ]
    (votes sv)

(* A response to another proposition does not merge: a smaller number
   is pruned, a larger one replaces the queue. *)
let test_merge_keyed_by_proposition () =
  let sv = leader_queue () in
  let enqueue tag v =
    S.enqueue sv ~merge:merge_votes ~target:3 ~pno:(pno tag 3) v
  in
  enqueue 2 (vote 1);
  enqueue 1 (vote 5);
  Alcotest.check vote_queue "smaller number pruned"
    [ ((2, "prep"), (true, 1)) ]
    (votes sv);
  enqueue 3 (vote 2);
  Alcotest.check vote_queue "larger number replaces"
    [ ((3, "prep"), (true, 2)) ]
    (votes sv)

let test_merge_counts_and_priors () =
  let sv = leader_queue () in
  let enqueue v = S.enqueue sv ~merge:merge_votes ~target:3 ~pno:(pno 2 3) v in
  enqueue (vote ~prior:{ P.pno = pno 1 1; value = 0 } ~committed:(pno 1 0) 2);
  enqueue (vote ~prior:{ P.pno = pno 2 0; value = 1 } 3);
  enqueue (vote ~committed:(pno 1 2) 1);
  match sv.response_q with
  | [ { body; _ } ] ->
      Alcotest.(check int) "counts add" 6 body.count;
      Alcotest.(check bool) "keeps the higher prior" true
        (body.prior = Some { P.pno = pno 2 0; value = 1 });
      Alcotest.(check bool) "keeps the larger committed number" true
        (body.committed = Some (pno 1 2))
  | q -> Alcotest.failf "expected one entry, got %d" (List.length q)

(* The point of merging: responses that folded together leave as one
   message, carrying the summed count, once a route to the target exists. *)
let test_merged_leave_together () =
  let sv = leader_queue () in
  let enqueue v = S.enqueue sv ~merge:merge_votes ~target:3 ~pno:(pno 2 3) v in
  List.iter (fun n -> enqueue (vote n)) [ 1; 2; 3 ];
  let emit dest (e : vote S.entry) = (dest, e.body.count) in
  Alcotest.(check (option (pair int int))) "no route yet" None
    (S.dequeue sv ~emit);
  ignore (Consensus.Tree.improve sv.tree ~root:3 ~hops:0 ~sender:2);
  Alcotest.(check (option (pair int int))) "one message, summed" (Some (2, 6))
    (S.dequeue sv ~emit);
  Alcotest.(check (option (pair int int))) "nothing left" None
    (S.dequeue sv ~emit)

(* Conservation across merges and prunes: whatever arrives, the queue
   holds exactly the leader's largest proposal number, once per class,
   with the summed count of every response of that class. *)
let gen_arrival =
  QCheck.Gen.(
    let* target = oneofl [ 3; 3; 3; 1 ] in
    let* tag = int_range 0 2 in
    let* round = oneofl [ P.Prepare_round; P.Propose_round ] in
    let* positive = bool in
    let* count = int_range 1 5 in
    return (target, tag, round, positive, count))

let prop_enqueue_conserves_counts =
  QCheck.Test.make ~name:"enqueue conserves per-class counts" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 25) gen_arrival))
    (fun arrivals ->
      let sv = leader_queue () in
      List.iter
        (fun (target, tag, round, positive, count) ->
          S.enqueue sv ~merge:merge_votes ~target ~pno:(pno tag target)
            (vote ~round ~positive count))
        arrivals;
      let mine = List.filter (fun (t, _, _, _, _) -> t = 3) arrivals in
      let best =
        List.fold_left (fun b (_, tag, _, _, _) -> max b tag) (-1) mine
      in
      let expected =
        List.filter (fun (_, tag, _, _, _) -> tag = best) mine
        |> List.map (fun (_, _, r, p, c) -> ((r, p), c))
      in
      let classes = List.sort_uniq compare (List.map fst expected) in
      let sum k =
        List.fold_left (fun acc (k', c) -> if k' = k then acc + c else acc) 0
      in
      let got =
        List.map
          (fun (e : vote S.entry) ->
            ((e.body.round, e.body.positive), e.body.count))
          sv.response_q
      in
      List.for_all
        (fun (e : vote S.entry) -> e.target = 3 && e.pno.tag = best)
        sv.response_q
      && List.length got = List.length classes
      && List.for_all (fun k -> sum k got = sum k expected) classes)

let prop_merge_order_free =
  QCheck.Test.make ~name:"merged count is independent of arrival order"
    ~count:100
    QCheck.(triple (int_range 1 10) (int_range 1 10) (int_range 1 10))
    (fun (a, b, c) ->
      let count order =
        let sv = leader_queue () in
        List.iter
          (fun n ->
            S.enqueue sv ~merge:merge_votes ~target:3 ~pno:(pno 1 3) (vote n))
          order;
        List.map (fun (e : vote S.entry) -> e.body.count) sv.response_q
      in
      count [ a; b; c ] = [ a + b + c ] && count [ c; a; b ] = [ a + b + c ])

let fire_at step calls =
  List.filter_map
    (fun i -> if step () then Some i else None)
    (List.init calls (fun i -> i + 1))

(* The tree refresh backs off 4, 8, ..., 64 acks; the leader's retries
   back off from 2n+8 up to 16x that, eight per leadership epoch. *)
let test_tick_schedules () =
  let sv = S.create ~me:0 ~n:4 ~omega:0 ~patience:8 in
  Alcotest.(check (list int))
    "refresh backoff" [ 4; 12; 28; 60; 124; 188; 252 ]
    (fire_at (fun () -> S.refresh sv) 300);
  Alcotest.(check (option int)) "heartbeat queued" (Some 0) sv.leader_q;
  let retries = [ 16; 48; 112; 240; 496; 752; 1008; 1264 ] in
  Alcotest.(check (list int)) "eight retries" retries
    (fire_at (fun () -> S.retry_due sv) 3000);
  S.open_epoch sv;
  Alcotest.(check (list int)) "a new epoch restores the budget" retries
    (fire_at (fun () -> S.retry_due sv) 3000);
  S.open_epoch sv;
  ignore (fire_at (fun () -> S.retry_due sv) 10);
  S.progress sv;
  Alcotest.(check (list int)) "progress restarts the timer" [ 16 ]
    (fire_at (fun () -> S.retry_due sv) 20);
  let follower = S.create ~me:1 ~n:4 ~omega:3 ~patience:8 in
  Alcotest.(check (list int)) "followers never retry" []
    (fire_at (fun () -> S.retry_due follower) 3000)

(* The receive handler applies components in rank order, sorting only a
   message that arrives out of rank. On every delivery of a multi-component
   message, the handler also runs on two clones of the receiving state:
   once on the message reversed and once as delivered. Each kind of
   component appears at most once per message, so both sort to the same
   order, and both must return the same actions and leave the same
   state. *)
let out_of_rank ~clone ~fp ~pp (alg : ('s, 'c list) Amac.Algorithm.t) run =
  let checked = ref 0 and mismatches = ref [] in
  let render actions =
    List.map
      (function
        | Amac.Algorithm.Broadcast m -> pp m
        | Amac.Algorithm.Decide v -> Printf.sprintf "decide %d" v)
      actions
  in
  let on_receive ctx st m =
    (match m with
    | _ :: _ :: _ ->
        incr checked;
        let a = clone st and b = clone st in
        let got = render (alg.on_receive ctx a (List.rev m)) in
        let expected = render (alg.on_receive ctx b m) in
        if got <> expected || fp a <> fp b then
          mismatches := pp m :: !mismatches
    | [] | [ _ ] -> ());
    alg.on_receive ctx st m
  in
  run { alg with on_receive };
  (!checked, !mismatches)

let with_hooks (alg : ('s, 'm) Amac.Algorithm.t) =
  let hooks = Option.get alg.hooks in
  let fp st =
    Amac.Fingerprint.to_int (hooks.fingerprint st Amac.Fingerprint.empty)
  in
  (hooks.clone, fp)

let check_out_of_rank name (checked, mismatches) =
  Alcotest.(check bool)
    (name ^ ": multi-component messages were delivered")
    true (checked > 100);
  Alcotest.(check (list string)) (name ^ ": same actions and state") []
    mismatches

let test_out_of_rank () =
  let wpaxos = Consensus.Wpaxos.make () in
  let clone, fp = with_hooks wpaxos in
  check_out_of_rank "wpaxos"
    (out_of_rank ~clone ~fp ~pp:Consensus.Wpaxos.pp_msg wpaxos (fun alg ->
         let outcome =
           Amac.Engine.run alg
             ~topology:(Amac.Topology.grid ~width:6 ~height:6)
             ~scheduler:(Amac.Scheduler.random (Amac.Rng.create 9) ~fack:4)
             ~inputs:(Consensus.Runner.inputs_alternating ~n:36)
             ~crashes:[ (14, 30); (20, 45) ]
         in
         Alcotest.(check bool) "wpaxos decided" true
           (Fixtures.all_decided outcome)));
  let flood = Consensus.Flood_paxos.make () in
  let clone, fp = with_hooks flood in
  check_out_of_rank "flood-paxos"
    (out_of_rank ~clone ~fp ~pp:Consensus.Flood_paxos.pp_msg flood
       (fun alg ->
         let topology = Amac.Topology.star_of_lines ~arms:8 ~arm_len:4 in
         let n = Amac.Topology.size topology in
         let outcome =
           Amac.Engine.run alg ~topology
             ~scheduler:(Amac.Scheduler.random (Amac.Rng.create 9) ~fack:4)
             ~inputs:(Consensus.Runner.inputs_alternating ~n)
         in
         Alcotest.(check bool) "flood-paxos decided" true
           (Fixtures.all_decided outcome)));
  let smr, h = Smr.make () in
  let fp st = Amac.Fingerprint.(to_int (Smr.fingerprint_state st empty)) in
  check_out_of_rank "smr"
    (out_of_rank ~clone:Smr.clone_state ~fp ~pp:Smr.pp_msg smr (fun alg ->
         let n = 5 in
         let injections = List.init 60 (fun i -> (i mod n, 1 + (3 * i), i + 1)) in
         let outcome =
           Amac.Engine.run alg ~topology:(Amac.Topology.clique n)
             ~scheduler:(Amac.Scheduler.bursty ~fack:3 ~fast_len:40 ~slow_len:12)
             ~inputs:(Array.make n 0) ~crashes:[ (0, 40) ] ~injections
             ~on_inject:(Smr.injector h) ~max_time:100_000
             ~stop_when_all_decided:false
         in
         Alcotest.(check bool) "smr quiesced" false outcome.hit_max_time;
         Alcotest.(check bool) "smr applied commands" true
           (List.length (Smr.applied h 1) > 40)))

(* [in_rank_order] against [List.stable_sort] by rank, on the three
   protocols' rank tables (by constructor: wPAXOS's Leader, Change,
   Search, Proposal, Response, Decision; flood-paxos's Leader, Change,
   Proposal, Unit, Decision; the log's Leader, Change, Search, Forward,
   Proposal, Response, Snapshot, Decision, which is its compose order).
   Components repeat, so ranks do too; an already-ranked message must
   come back as the same list. *)
let prop_rank_order =
  let tables =
    [| [| 0; 1; 2; 3; 4; 5 |]; [| 0; 1; 2; 3; 4 |]; [| 0; 1; 2; 3; 6; 7; 4; 5 |] |]
  in
  QCheck.Test.make ~name:"in_rank_order is a stable sort by rank" ~count:1000
    QCheck.(
      triple (int_bound 2) (list_of_size Gen.(int_range 0 12) (int_bound 7)) bool)
    (fun (p, kinds, ranked) ->
      let table = tables.(p) in
      let rank (_, k) = table.(k mod Array.length table) in
      let by_rank a b = Int.compare (rank a) (rank b) in
      let msg = List.mapi (fun i k -> (i, k)) kinds in
      let msg = if ranked then List.stable_sort by_rank msg else msg in
      let got = S.in_rank_order ~rank msg in
      got = List.stable_sort by_rank msg && ((not ranked) || got == msg))

let () =
  Alcotest.run "services"
    [
      ( "kit",
        [
          Alcotest.test_case "stamp order" `Quick test_stamp_order;
          Alcotest.test_case "queue invariant" `Quick test_queue_invariant;
          Alcotest.test_case "routed dequeue" `Quick test_routed_dequeue;
          Alcotest.test_case "responses merge by class" `Quick
            test_merge_classes;
          Alcotest.test_case "responses merge per proposition" `Quick
            test_merge_keyed_by_proposition;
          Alcotest.test_case "merge adds counts, keeps maxima" `Quick
            test_merge_counts_and_priors;
          Alcotest.test_case "merged responses leave together" `Quick
            test_merged_leave_together;
          QCheck_alcotest.to_alcotest prop_enqueue_conserves_counts;
          QCheck_alcotest.to_alcotest prop_merge_order_free;
          Alcotest.test_case "tick schedules" `Quick test_tick_schedules;
          Alcotest.test_case "out-of-rank message, same outcome (all three)"
            `Quick test_out_of_rank;
          QCheck_alcotest.to_alcotest prop_rank_order;
        ] );
    ]
