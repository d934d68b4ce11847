(* The ◇P failure detector (lib/fd) on its own: the fixed-patience
   suspicion threshold, the watch moving with the ticked peer, the three
   heartbeat verdicts, the suspect list and leader candidate, and the
   clone/fingerprint hooks that let states embedding a detector be
   model-checked. *)

let verdict =
  Alcotest.testable
    (fun fmt v ->
      Format.pp_print_string fmt
        (match v with
        | Fd.Fresh -> "Fresh"
        | Fd.Fresh_cleared -> "Fresh_cleared"
        | Fd.Stale -> "Stale"))
    ( = )

let is_suspect = function Fd.Suspect -> true | Fd.Ok -> false

let fp t = Amac.Fingerprint.to_int (Fd.fingerprint t Amac.Fingerprint.empty)

(* Tick [peer] until it is suspected; the peer must not have been before. *)
let suspect t ~peer =
  let rec go k =
    if k > 1000 then Alcotest.fail "no suspicion within 1000 ticks"
    else if not (is_suspect (Fd.tick t ~peer)) then go (k + 1)
  in
  go 0

let test_suspects_after_patience () =
  let patience = 3 in
  let t = Fd.create ~patience ~me:0 () in
  for k = 1 to patience do
    Alcotest.(check bool)
      (Printf.sprintf "silent tick %d is not a suspicion" k)
      false
      (is_suspect (Fd.tick t ~peer:1))
  done;
  Alcotest.(check bool) "not yet suspected" false (Fd.suspected t 1);
  Alcotest.(check bool)
    "the patience+1-th silent tick suspects" true
    (is_suspect (Fd.tick t ~peer:1));
  Alcotest.(check bool) "now suspected" true (Fd.suspected t 1);
  Alcotest.(check bool)
    "a suspected peer is not suspected again" false
    (is_suspect (Fd.tick t ~peer:1));
  Alcotest.(check int) "patience is fixed" patience
    (Fd.stats t).Fd.patience_now

let test_tick_moves_watch () =
  let t = Fd.create ~patience:5 ~me:0 () in
  ignore (Fd.tick t ~peer:1);
  ignore (Fd.tick t ~peer:1);
  Alcotest.(check int) "silence counts against peer 1" 2 (Fd.stats t).Fd.silence;
  ignore (Fd.tick t ~peer:2);
  let s = Fd.stats t in
  Alcotest.(check int) "watch moved to peer 2" 2 s.Fd.watched;
  Alcotest.(check int) "silence restarted" 1 s.Fd.silence;
  (* A fresh heartbeat from the watched peer resets its silence too. *)
  Alcotest.check verdict "fresh heartbeat" Fd.Fresh (Fd.observe t ~peer:2 ~hb:1);
  Alcotest.(check int) "silence reset by heartbeat" 0 (Fd.stats t).Fd.silence

let test_observe_verdicts () =
  let t = Fd.create ~patience:2 ~me:0 () in
  Alcotest.check verdict "first heartbeat" Fd.Fresh (Fd.observe t ~peer:1 ~hb:1);
  Alcotest.check verdict "same heartbeat" Fd.Stale (Fd.observe t ~peer:1 ~hb:1);
  Alcotest.check verdict "older heartbeat" Fd.Stale (Fd.observe t ~peer:1 ~hb:0);
  Alcotest.(check int) "largest heartbeat kept" 1 (Fd.hb t 1);
  suspect t ~peer:1;
  Alcotest.check verdict "stalled heartbeat stays stale" Fd.Stale
    (Fd.observe t ~peer:1 ~hb:1);
  Alcotest.(check bool) "still suspected" true (Fd.suspected t 1);
  Alcotest.check verdict "heartbeat past the stamp clears" Fd.Fresh_cleared
    (Fd.observe t ~peer:1 ~hb:2);
  Alcotest.(check bool) "unsuspected" false (Fd.suspected t 1);
  Alcotest.check verdict "later heartbeats are plain fresh" Fd.Fresh
    (Fd.observe t ~peer:1 ~hb:3)

let test_suspects_sorted () =
  let t = Fd.create ~patience:1 ~me:0 () in
  List.iter (fun peer -> suspect t ~peer) [ 3; 1; 2 ];
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (Fd.suspects t);
  Alcotest.(check int) "gauge counts them" 3 (Fd.stats t).Fd.suspected_now

let test_candidate () =
  let t = Fd.create ~patience:1 ~me:0 () in
  List.iter (fun peer -> ignore (Fd.observe t ~peer ~hb:1)) [ 1; 2; 3; 4 ];
  suspect t ~peer:4;
  let all _ = true in
  Alcotest.(check int) "largest unsuspected" 3 (Fd.candidate t ~base:0 ~eligible:all);
  Alcotest.(check int) "eligibility filters" 2
    (Fd.candidate t ~base:0 ~eligible:(fun id -> id <> 3));
  Alcotest.(check int) "base when nobody qualifies" (-1)
    (Fd.candidate t ~base:(-1) ~eligible:(fun _ -> false));
  Alcotest.(check int) "base when it beats every heard-from peer" 7
    (Fd.candidate t ~base:7 ~eligible:all)

let test_clone_and_fingerprint () =
  let build () =
    let t = Fd.create ~patience:2 ~me:0 () in
    ignore (Fd.beat t);
    ignore (Fd.observe t ~peer:1 ~hb:4);
    ignore (Fd.observe t ~peer:2 ~hb:1);
    suspect t ~peer:2;
    t
  in
  let a = build () and b = build () in
  Alcotest.(check int) "equal states, equal fingerprints" (fp a) (fp b);
  let c = Fd.clone a in
  Alcotest.(check int) "a clone fingerprints like its original" (fp a) (fp c);
  let before = fp a in
  ignore (Fd.observe c ~peer:2 ~hb:5);
  ignore (Fd.tick c ~peer:1);
  ignore (Fd.beat c);
  Alcotest.(check bool) "original still suspects 2" true (Fd.suspected a 2);
  Alcotest.(check int) "original heartbeat table untouched" 1 (Fd.hb a 2);
  Alcotest.(check int) "original fingerprint unchanged" before (fp a);
  Alcotest.(check bool) "the mutated clone differs" true (fp c <> fp a)

let test_rejects_zero_patience () =
  Alcotest.check_raises "patience 0"
    (Invalid_argument "Fd.create: patience must be >= 1") (fun () ->
      ignore (Fd.create ~patience:0 ~me:0 ()))

let () =
  Alcotest.run "fd"
    [
      ( "detector",
        [
          Alcotest.test_case "suspects after patience" `Quick
            test_suspects_after_patience;
          Alcotest.test_case "tick moves the watch" `Quick test_tick_moves_watch;
          Alcotest.test_case "observe verdicts" `Quick test_observe_verdicts;
          Alcotest.test_case "suspects sorted" `Quick test_suspects_sorted;
          Alcotest.test_case "candidate" `Quick test_candidate;
          Alcotest.test_case "clone and fingerprint" `Quick
            test_clone_and_fingerprint;
          Alcotest.test_case "rejects patience 0" `Quick
            test_rejects_zero_patience;
        ] );
    ]
