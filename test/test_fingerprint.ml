(* The fingerprint hasher: the combinators must separate the structures
   the explorer distinguishes (field order, list lengths, option tags),
   and — the soundness property the explorer's `Fast keying
   rests on — over a large batch of real reachable configurations the
   fingerprint must be deterministic and collision-free against the
   Marshal digest. *)

module F = Amac.Fingerprint
module Explore = Mcheck.Explore

let fp_of f = F.to_int (f F.empty)

let test_combinators_separate () =
  let cases =
    [
      ("int value", fp_of (F.int 1), fp_of (F.int 2));
      ( "field order",
        fp_of (fun a -> a |> F.int 1 |> F.int 2),
        fp_of (fun a -> a |> F.int 2 |> F.int 1) );
      ("bool", fp_of (F.bool true), fp_of (F.bool false));
      (* a bool is not the int it encodes to at a different position *)
      ( "list length",
        fp_of (F.list F.int [ 0 ]),
        fp_of (F.list F.int [ 0; 0 ]) );
      ( "list split",
        fp_of (fun a -> a |> F.list F.int [ 1 ] |> F.list F.int [ 2; 3 ]),
        fp_of (fun a -> a |> F.list F.int [ 1; 2 ] |> F.list F.int [ 3 ]) );
      ("option", fp_of (F.option F.int None), fp_of (F.option F.int (Some 0)));
      ( "array vs reversed",
        fp_of (F.array F.int [| 1; 2; 3 |]),
        fp_of (F.array F.int [| 3; 2; 1 |]) );
    ]
  in
  List.iter
    (fun (name, a, b) ->
      Alcotest.(check bool) (name ^ " separated") true (a <> b))
    cases

let test_to_int_range_and_determinism () =
  List.iter
    (fun acc ->
      let k = F.to_int acc in
      Alcotest.(check bool) "non-negative" true (k >= 0);
      Alcotest.(check int) "deterministic" k (F.to_int acc))
    [ F.empty; F.int 0 F.empty; F.int min_int F.empty; F.bool true F.empty ]

(* Low bits feed table/shard indexing directly, so neighbouring inputs
   must not collide modulo a small power of two. *)
let test_to_int_low_bits_mixed () =
  let mask = 255 in
  let buckets = Hashtbl.create 64 in
  for i = 0 to 63 do
    Hashtbl.replace buckets (F.to_int (F.int i F.empty) land mask) ()
  done;
  Alcotest.(check bool) "64 consecutive ints spread over >= 32 of 256 buckets"
    true
    (Hashtbl.length buckets >= 32)

(* The soundness property behind `Fast keying, over the states the
   explorer actually visits: sampling is keyed on the Marshal digest, so
   every sampled configuration is digest-distinct — any two of them
   sharing a fingerprint is a genuine 63-bit collision. With 20k states
   the expected count is ~2^2·10^8/2^64 ≈ 2e-11: assert exactly zero. *)
let test_key_pairs_collision_free () =
  let sample () =
    Explore.key_pairs
      (Explore.sample
         { Explore.default with max_states = 5_000_000 }
         Consensus.Two_phase.algorithm
         ~topology:(Amac.Topology.clique 3)
         ~inputs:[| 0; 1; 1 |] ~max_samples:20_000)
  in
  let pairs = sample () in
  Alcotest.(check int) "sampled the full batch" 20_000 (Array.length pairs);
  let by_fp = Hashtbl.create (Array.length pairs) in
  let collisions = ref 0 in
  Array.iter
    (fun (digest, fp) ->
      match Hashtbl.find_opt by_fp fp with
      | None -> Hashtbl.add by_fp fp digest
      | Some d when d = digest -> () (* digest-equal: agreement is required *)
      | Some _ -> incr collisions)
    pairs;
  Alcotest.(check int) "no distinct-digest fingerprint collisions" 0
    !collisions;
  (* Digest-equal ⇒ fingerprint-equal, across independent recomputations:
     the same sample is regenerated (BFS is deterministic), so digests
     line up pairwise and the fingerprints must too. *)
  let again = sample () in
  Array.iteri
    (fun i (digest, fp) ->
      let digest', fp' = again.(i) in
      Alcotest.(check string) "same state sampled" digest digest';
      Alcotest.(check int) "digest-equal implies fingerprint-equal" fp fp')
    pairs

let () =
  Alcotest.run "fingerprint"
    [
      ( "combinators",
        [
          Alcotest.test_case "separate distinct structures" `Quick
            test_combinators_separate;
          Alcotest.test_case "to_int range + determinism" `Quick
            test_to_int_range_and_determinism;
          Alcotest.test_case "to_int mixes low bits" `Quick
            test_to_int_low_bits_mixed;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "collision-free over 20k reachable states"
            `Quick test_key_pairs_collision_free;
        ] );
    ]
