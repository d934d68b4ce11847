(* The ◇P failure detector (lib/fd) on its own: the fixed-patience
   suspicion threshold, the watch moving with the ticked peer, the three
   heartbeat verdicts, the suspect list and leader candidate, and the
   clone/fingerprint hooks that let states embedding a detector be
   model-checked. Then the flat-table detector against the two-Hashtbl one
   it replaced, on random operation sequences. *)

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
  Alcotest.(check bool) "each suspected" true
    (List.for_all (Fd.suspected t) [ 1; 2; 3 ]);
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

(* The detector as it was before its table went flat: two polymorphic
   Hashtbls, node -> largest heartbeat and peer -> suspicion stamp. Kept
   as the oracle for the property below. *)
module Oracle = struct
  type t = {
    me : int;
    patience : int;
    mutable my_hb : int;
    hb_seen : (int, int) Hashtbl.t;
    suspect_at : (int, int) Hashtbl.t;
    mutable watched : int;
    mutable silence : int;
  }

  let create ~patience ~me () =
    let t =
      {
        me;
        patience;
        my_hb = 0;
        hb_seen = Hashtbl.create 8;
        suspect_at = Hashtbl.create 8;
        watched = me;
        silence = 0;
      }
    in
    Hashtbl.replace t.hb_seen me 0;
    t

  let beat t =
    t.my_hb <- t.my_hb + 1;
    Hashtbl.replace t.hb_seen t.me t.my_hb;
    t.my_hb

  let hb t id = Option.value ~default:0 (Hashtbl.find_opt t.hb_seen id)

  let suspected t id = Hashtbl.mem t.suspect_at id

  let observe t ~peer ~hb : Fd.verdict =
    let seen = Option.value ~default:(-1) (Hashtbl.find_opt t.hb_seen peer) in
    if hb > seen then begin
      Hashtbl.replace t.hb_seen peer hb;
      if peer = t.watched then t.silence <- 0;
      match Hashtbl.find_opt t.suspect_at peer with
      | Some at when hb > at ->
          Hashtbl.remove t.suspect_at peer;
          Fresh_cleared
      | Some _ | None -> Fresh
    end
    else Stale

  let watch t ~peer =
    t.watched <- peer;
    t.silence <- 0

  let tick t ~peer : Fd.tick_verdict =
    if peer <> t.watched then watch t ~peer;
    t.silence <- t.silence + 1;
    if t.silence > t.patience && not (suspected t peer) then begin
      Hashtbl.replace t.suspect_at peer (hb t peer);
      Suspect
    end
    else Ok

  let candidate t ~base ~eligible =
    Hashtbl.fold
      (fun id _ best ->
        if eligible id && (not (suspected t id)) && id > best then id else best)
      t.hb_seen base

  let stats t =
    {
      Fd.suspected_now = Hashtbl.length t.suspect_at;
      watched = t.watched;
      silence = t.silence;
      patience_now = t.patience;
    }

  module F = Amac.Fingerprint

  let fp_int_tbl tbl acc =
    let entries = Hashtbl.fold (fun k v l -> (k, v) :: l) tbl [] in
    let entries = List.sort compare entries in
    F.list (fun (k, v) acc -> acc |> F.int k |> F.int v) entries acc

  let fingerprint t acc =
    acc |> F.int t.my_hb |> fp_int_tbl t.hb_seen |> fp_int_tbl t.suspect_at
    |> F.int t.watched |> F.int t.silence |> F.int t.patience

  let clone t =
    {
      t with
      hb_seen = Hashtbl.copy t.hb_seen;
      suspect_at = Hashtbl.copy t.suspect_at;
    }
end

type op =
  | Beat
  | Observe of int * int
  | Watch of int
  | Tick of int
  | Candidate of int * int list * bool
      (* base; eligible is [List.mem id ids = flag] *)
  | Suspected of int
  | Hb of int
  | Stats
  | Fingerprint
  | Clone

(* Ids far apart, offset from 0, negative, and a dense run near 0. *)
let id_gen =
  QCheck.Gen.(
    frequency
      [
        (3, int_range (-3) 12);
        ( 2,
          oneofl
            [ -4096; -77; -1; 1000; 1001; 1024; 4096; 65_537; 123_457; 1 lsl 40 ]
        );
        (1, map (fun k -> 10_000 + (k * 64)) (int_range 0 20));
      ])

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (2, return Beat);
        (6, map2 (fun p h -> Observe (p, h)) id_gen (int_range (-2) 25));
        (1, map (fun p -> Watch p) id_gen);
        (6, map (fun p -> Tick p) id_gen);
        ( 2,
          map3
            (fun base ids flag -> Candidate (base, ids, flag))
            (oneof [ id_gen; return (-1); return min_int ])
            (list_size (int_range 0 4) id_gen)
            bool );
        (1, map (fun p -> Suspected p) id_gen);
        (1, map (fun p -> Hb p) id_gen);
        (1, return Stats);
        (1, return Fingerprint);
        (1, return Clone);
      ])

let pp_op = function
  | Beat -> "beat"
  | Observe (p, h) -> Printf.sprintf "observe %d %d" p h
  | Watch p -> Printf.sprintf "watch %d" p
  | Tick p -> Printf.sprintf "tick %d" p
  | Candidate (b, ids, flag) ->
      Printf.sprintf "candidate %d [%s] %b" b
        (String.concat ";" (List.map string_of_int ids))
        flag
  | Suspected p -> Printf.sprintf "suspected %d" p
  | Hb p -> Printf.sprintf "hb %d" p
  | Stats -> "stats"
  | Fingerprint -> "fingerprint"
  | Clone -> "clone"

(* Run [ops] on both detectors in lockstep, with the same [me] and
   [patience]; every answer is rendered to a string. A [Clone] continues on
   the clones and keeps the originals, whose fingerprints are compared at
   the end (a clone sharing its original's table would drift it). *)
let lockstep ~me ~patience ops =
  let fd = ref (Fd.create ~patience ~me ()) in
  let oracle = ref (Oracle.create ~patience ~me ()) in
  let kept = ref [] in
  let fp_fd t = Amac.Fingerprint.to_int (Fd.fingerprint t Amac.Fingerprint.empty) in
  let fp_oracle t =
    Amac.Fingerprint.to_int (Oracle.fingerprint t Amac.Fingerprint.empty)
  in
  let verdict = function
    | Fd.Fresh -> "fresh"
    | Fd.Fresh_cleared -> "cleared"
    | Fd.Stale -> "stale"
  in
  let tick_verdict = function Fd.Ok -> "ok" | Fd.Suspect -> "suspect" in
  let stats (s : Fd.stats) =
    Printf.sprintf "%d/%d/%d/%d" s.suspected_now s.watched s.silence
      s.patience_now
  in
  let step op =
    let t = !fd and o = !oracle in
    match op with
    | Beat -> (string_of_int (Fd.beat t), string_of_int (Oracle.beat o))
    | Observe (peer, hb) ->
        (verdict (Fd.observe t ~peer ~hb), verdict (Oracle.observe o ~peer ~hb))
    | Watch peer ->
        Fd.watch t ~peer;
        Oracle.watch o ~peer;
        ("", "")
    | Tick peer ->
        (tick_verdict (Fd.tick t ~peer), tick_verdict (Oracle.tick o ~peer))
    | Candidate (base, ids, flag) ->
        let eligible id = List.mem id ids = flag in
        ( string_of_int (Fd.candidate t ~base ~eligible),
          string_of_int (Oracle.candidate o ~base ~eligible) )
    | Suspected id ->
        (string_of_bool (Fd.suspected t id), string_of_bool (Oracle.suspected o id))
    | Hb id -> (string_of_int (Fd.hb t id), string_of_int (Oracle.hb o id))
    | Stats -> (stats (Fd.stats t), stats (Oracle.stats o))
    | Fingerprint -> (string_of_int (fp_fd t), string_of_int (fp_oracle o))
    | Clone ->
        kept := (t, o) :: !kept;
        fd := Fd.clone t;
        oracle := Oracle.clone o;
        ("", "")
  in
  let rec go i = function
    | [] ->
        (* Every answer above, then the final and kept states. *)
        List.find_map
          (fun (t, o) ->
            let a = fp_fd t and b = fp_oracle o in
            if a = b then None
            else Some (Printf.sprintf "fingerprints differ at the end: %d vs %d" a b))
          ((!fd, !oracle) :: !kept)
    | op :: rest ->
        let got, expected = step op in
        if got = expected then go (i + 1) rest
        else
          Some
            (Printf.sprintf "op %d (%s): flat table %S, two tables %S" i
               (pp_op op) got expected)
  in
  go 0 ops

let prop_matches_oracle =
  QCheck.Test.make ~name:"flat table answers as the two-Hashtbl detector"
    ~count:500
    QCheck.(
      make
        ~print:(fun (me, patience, ops) ->
          Printf.sprintf "me=%d patience=%d [%s]" me patience
            (String.concat "; " (List.map pp_op ops)))
        ~shrink:
          Shrink.(triple nil nil list)
        Gen.(triple id_gen (int_range 1 4) (list_size (int_range 0 200) op_gen)))
    (fun (me, patience, ops) ->
      match lockstep ~me ~patience ops with
      | None -> true
      | Some why -> QCheck.Test.fail_report why)

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
      ("oracle", [ QCheck_alcotest.to_alcotest prop_matches_oracle ]);
    ]
