(* Satellite: Algorithm.hooks for the baseline algorithms that lacked them
   — flood_paxos, round_flood, flood_gather — making them first-class
   citizens of the explorer's `Fast keying and the fingerprint soundness
   harness.

   Two properties per algorithm, mirroring test_mcheck/test_fingerprint:

   - keying equivalence: exploring with fingerprint keys visits exactly the
     state space the Marshal+MD5 keys do (states, transitions, reduction
     counters all equal);
   - collision freedom: over a digest-distinct sample of reachable
     configurations, no two share a fingerprint (expected count over a few
     thousand states is ~1e-12 at 63 bits — assert exactly zero).

   Instance sizes are tuned per algorithm: flood_paxos branches heavily
   (leader + proposer machinery), so its exploration instance is a 2-clique
   at bounded depth; round_flood's space is genuinely tiny (monotone round
   counters mean no revisits at all), pinned as such. *)

module Explore = Mcheck.Explore

type case =
  | Case : {
      name : string;
      algorithm : ('s, 'm) Amac.Algorithm.t;
      topology : Amac.Topology.t;
      inputs : int array;
      max_depth : int;
      min_states : int;  (** the space this instance must at least visit *)
      expect_revisits : bool;
          (** whether the instance dedups at all (round_flood's state is
              monotone — every reachable state is distinct) *)
    }
      -> case

let explore_cases =
  [
    Case
      {
        name = "round_flood";
        algorithm = Consensus.Round_flood.make ~target:`Knows_n;
        topology = Amac.Topology.clique 3;
        inputs = [| 2; 0; 1 |];
        max_depth = 64;
        min_states = 10;
        expect_revisits = false;
      };
    Case
      {
        name = "flood_gather";
        algorithm = Consensus.Flood_gather.make ();
        topology = Amac.Topology.line 3;
        inputs = [| 1; 0; 1 |];
        max_depth = 64;
        min_states = 1_000;
        expect_revisits = true;
      };
    Case
      {
        name = "flood_paxos";
        algorithm = Consensus.Flood_paxos.make ();
        topology = Amac.Topology.clique 2;
        inputs = [| 0; 1 |];
        max_depth = 14;
        min_states = 50;
        expect_revisits = true;
      };
  ]

(* Sampling instances for collision freedom — sized to yield thousands of
   digest-distinct states (flood_paxos needs the 3-clique for that). *)
let sample_cases =
  [
    Case
      {
        name = "round_flood";
        algorithm = Consensus.Round_flood.make ~target:`Knows_n;
        topology = Amac.Topology.clique 3;
        inputs = [| 2; 0; 1 |];
        max_depth = 64;
        min_states = 1_000;
        expect_revisits = false;
      };
    Case
      {
        name = "flood_gather";
        algorithm = Consensus.Flood_gather.make ();
        topology = Amac.Topology.line 3;
        inputs = [| 1; 0; 1 |];
        max_depth = 64;
        min_states = 1_000;
        expect_revisits = true;
      };
    Case
      {
        name = "flood_paxos";
        algorithm = Consensus.Flood_paxos.make ();
        topology = Amac.Topology.clique 3;
        inputs = [| 0; 1; 1 |];
        max_depth = 16;
        min_states = 1_000;
        expect_revisits = true;
      };
  ]

let test_keying_equivalence () =
  List.iter
    (fun (Case { name; algorithm; topology; inputs; max_depth; min_states; _ }) ->
      let run keying =
        Explore.explore
          {
            Explore.default with
            crash_budget = 1;
            keying;
            max_depth;
            max_states = 300_000;
          }
          algorithm ~topology ~inputs
      in
      let fast = run `Fast and marshal = run `Marshal in
      Alcotest.(check int) (name ^ ": same states") marshal.Explore.states
        fast.Explore.states;
      Alcotest.(check int)
        (name ^ ": same transitions")
        marshal.Explore.transitions fast.Explore.transitions;
      Alcotest.(check int)
        (name ^ ": same dedup hits")
        marshal.Explore.dedup_hits fast.Explore.dedup_hits;
      Alcotest.(check int)
        (name ^ ": same sleep skips")
        marshal.Explore.sleep_skips fast.Explore.sleep_skips;
      Alcotest.(check bool)
        (Printf.sprintf "%s: visited >= %d states (got %d)" name min_states
           fast.Explore.states)
        true
        (fast.Explore.states >= min_states))
    explore_cases

let test_collision_free () =
  List.iter
    (fun (Case { name; algorithm; topology; inputs; max_depth; min_states; _ }) ->
      let pairs =
        Explore.key_pairs
          (Explore.sample
             { Explore.default with max_depth; max_states = 5_000_000 }
             algorithm ~topology ~inputs ~max_samples:10_000)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: sampled >= %d states (got %d)" name min_states
           (Array.length pairs))
        true
        (Array.length pairs >= min_states);
      let by_fp = Hashtbl.create (Array.length pairs) in
      let collisions = ref 0 in
      Array.iter
        (fun (digest, fp) ->
          match Hashtbl.find_opt by_fp fp with
          | None -> Hashtbl.add by_fp fp digest
          | Some d when d = digest -> ()
          | Some _ -> incr collisions)
        pairs;
      Alcotest.(check int)
        (name ^ ": no distinct-digest fingerprint collisions")
        0 !collisions)
    sample_cases

(* Collision double-checking inside the explorer itself: every `Fast
   lookup is verified against the Marshal digest. *)
let test_collision_check_mode () =
  List.iter
    (fun (Case
           { name; algorithm; topology; inputs; max_depth; expect_revisits; _ })
         ->
      let stats =
        Explore.explore
          {
            Explore.default with
            crash_budget = 1;
            check_collisions = true;
            max_depth;
            max_states = 300_000;
          }
          algorithm ~topology ~inputs
      in
      Alcotest.(check int)
        (name ^ ": no fingerprint/digest disagreements")
        0 stats.Explore.collisions;
      Alcotest.(check bool)
        (name ^ ": revisit profile as expected")
        expect_revisits
        (stats.Explore.dedup_hits > 0))
    explore_cases

(* Logically equal wPAXOS states reached through different search
   histories: the tree service stamps its queue entries by push order, so
   the marshalled bytes (the `Marshal key) differ, but the `Fast key must
   not — it hashes the pending order, never the stamps. *)
let test_wpaxos_push_history () =
  let alg = Consensus.Wpaxos.make () in
  let hooks = Option.get alg.Amac.Algorithm.hooks in
  let ctx =
    {
      Amac.Algorithm.id = Amac.Node_id.Id 0;
      n = Some 4;
      diameter = None;
      degree = 3;
      input = 0;
    }
  in
  let search root hops sender =
    [ Consensus.Wpaxos.Search { root; hops; sender } ]
  in
  let run msgs =
    let st, _ = alg.init ctx in
    List.iter (fun m -> ignore (alg.on_receive ctx st m)) msgs;
    st
  in
  let fp st =
    Amac.Fingerprint.to_int (hooks.fingerprint st Amac.Fingerprint.empty)
  in
  (* Both end with root 2 then root 1 pending, root 1 at distance 2. *)
  let a = run [ search 1 3 1; search 2 1 2; search 1 2 1 ] in
  let b = run [ search 2 1 2; search 1 2 1 ] in
  Alcotest.(check bool) "histories leave different bytes" true
    (Marshal.to_string a [] <> Marshal.to_string b []);
  Alcotest.(check int) "equal pending queues fingerprint equal" (fp a) (fp b);
  let c = run [ search 1 2 1; search 2 1 2 ] in
  Alcotest.(check bool) "the pending order is hashed" true (fp a <> fp c)

let () =
  Alcotest.run "baseline-hooks"
    [
      ( "hooks",
        [
          Alcotest.test_case "fast and marshal keying agree" `Quick
            test_keying_equivalence;
          Alcotest.test_case "fingerprints collision-free on samples" `Quick
            test_collision_free;
          Alcotest.test_case "collision-check mode finds none" `Quick
            test_collision_check_mode;
          Alcotest.test_case "wpaxos: push history does not split keys"
            `Quick test_wpaxos_push_history;
        ] );
    ]
