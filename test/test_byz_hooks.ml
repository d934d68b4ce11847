(* Fingerprint soundness for the Byzantine wrapper and the two new
   algorithms, mirroring test_baseline_hooks:

   - keying equivalence: `Fast (fingerprint-keyed) exploration visits
     exactly the space `Marshal keying does — states, transitions and
     reduction counters all equal;
   - collision freedom: over a digest-distinct sample, no two
     configurations share a fingerprint;
   - collision-check mode: the explorer's own Fast-vs-digest cross-check
     reports zero disagreements.

   The wrapped cases exercise the adversary's node-local arms inside the
   explorer (replay / forge / drop_own fire on receive counts — time-free,
   so exploration is sound); delivery tampering lives in the engine's
   substitute hook and is out of the explorer's scope. The Byzantine
   node's whole observable state — inner state, rng, seen-buffer, counters
   — folds into the fingerprint, so two branches differing only in the
   adversary's memory never alias. *)

module Explore = Mcheck.Explore
module Model = Byz.Model

type case =
  | Case : {
      name : string;
      algorithm : ('s, 'm) Amac.Algorithm.t;
      topology : Amac.Topology.t;
      inputs : int array;
      max_depth : int;
      min_states : int;
      expect_revisits : bool;
    }
      -> case

let wrapped algorithm ~n ~adapter ~behavior =
  (Model.wrap ~n ~adapter
     ~strategy:{ Model.byz = [ (n - 1, behavior) ]; tampers = []; seed = 9 }
     algorithm)
    .Model.algorithm

let attacking =
  { Model.replay_period = 2; forge_period = 3; drop_own = false }

let silent = { Model.replay_period = 0; forge_period = 0; drop_own = true }

let cases ~sampling =
  [
    Case
      {
        name = "counter_race";
        algorithm = Counter_race.make ();
        topology = Amac.Topology.clique 2;
        inputs = [| 0; 1 |];
        max_depth = (if sampling then 18 else 12);
        min_states = (if sampling then 1_000 else 50);
        expect_revisits = true;
      };
    Case
      {
        name = "byz_consensus";
        algorithm = Consensus.Byz_consensus.make ~seed:3 ();
        topology = Amac.Topology.clique (if sampling then 3 else 2);
        inputs = (if sampling then [| 0; 1; 1 |] else [| 0; 1 |]);
        max_depth = (if sampling then 14 else 10);
        min_states = (if sampling then 1_000 else 50);
        expect_revisits = true;
      };
    Case
      {
        name = "byz(two_phase)";
        algorithm =
          wrapped Consensus.Two_phase.algorithm ~n:3
            ~adapter:Byz.Adapters.two_phase ~behavior:attacking;
        topology = Amac.Topology.clique 3;
        inputs = [| 0; 1; 1 |];
        max_depth = (if sampling then 16 else 12);
        min_states = (if sampling then 1_000 else 50);
        expect_revisits = true;
      };
    Case
      {
        (* silent (drop_own) adversary in the exhaustive checks; the
           attacking one for sampling — a mute node's space saturates well
           under the sample floor. *)
        name = "byz(byz_consensus)";
        algorithm =
          wrapped
            (Consensus.Byz_consensus.make ~seed:3 ())
            ~n:3 ~adapter:Byz.Adapters.byz_consensus
            ~behavior:(if sampling then attacking else silent);
        topology = Amac.Topology.clique 3;
        inputs = [| 0; 1; 1 |];
        max_depth = (if sampling then 16 else 8);
        min_states = (if sampling then 1_000 else 50);
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
    (cases ~sampling:false)

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
    (cases ~sampling:true)

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
    (cases ~sampling:false)

let () =
  Alcotest.run "byz-hooks"
    [
      ( "hooks",
        [
          Alcotest.test_case "fast and marshal keying agree" `Quick
            test_keying_equivalence;
          Alcotest.test_case "fingerprints collision-free on samples" `Quick
            test_collision_free;
          Alcotest.test_case "collision-check mode finds none" `Quick
            test_collision_check_mode;
        ] );
    ]
