(* The domain pool under its stated contract: results land in input order
   at any pool size, the lowest-index exception wins, a pool stays usable
   after a failed map, and the parallel entry point built on it
   (Campaign.run) produces reports byte-identical to its sequential
   baseline. *)

let squares n = Array.init n (fun i -> i * i)

(* Per-element work varies by two orders of magnitude so stealing and
   completion order genuinely scramble execution; the result array must
   not care. *)
let busy i =
  let rounds = 1 + (i * 37 mod 100) * 50 in
  let acc = ref 0 in
  for k = 1 to rounds do
    acc := (!acc + k) land 0xFFFF
  done;
  ignore !acc;
  i * i

let test_map_order () =
  List.iter
    (fun domains ->
      Par.with_pool ~domains (fun pool ->
          let got = Par.map pool busy (Array.init 400 Fun.id) in
          Alcotest.(check bool)
            (Printf.sprintf "input order at %d domains" domains)
            true
            (got = squares 400)))
    [ 1; 2; 4 ]

let test_map_empty_and_singleton () =
  Par.with_pool ~domains:3 (fun pool ->
      Alcotest.(check bool) "empty" true (Par.map pool busy [||] = [||]);
      Alcotest.(check bool) "singleton" true (Par.map pool busy [| 5 |] = [| 25 |]))

let test_lowest_index_exception_wins () =
  Par.with_pool ~domains:4 (fun pool ->
      let f i =
        if i = 3 || i = 17 then failwith (Printf.sprintf "boom %d" i) else i
      in
      match Par.map pool f (Array.init 32 Fun.id) with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg ->
          Alcotest.(check string) "first failing index reported" "boom 3" msg)

let test_pool_survives_exception () =
  Par.with_pool ~domains:2 (fun pool ->
      (try ignore (Par.map pool (fun _ -> failwith "x") [| 0; 1; 2 |])
       with Failure _ -> ());
      Alcotest.(check bool) "usable after a failed map" true
        (Par.map pool busy (Array.init 50 Fun.id) = squares 50))

let test_clamps_to_one () =
  Par.with_pool ~domains:0 (fun pool ->
      Alcotest.(check int) "clamped" 1 (Par.size pool);
      Alcotest.(check bool) "inline map" true
        (Par.map pool busy [| 1; 2 |] = [| 1; 4 |]))

module Campaign = Mcheck.Campaign
module Fuzz = Mcheck.Fuzz

(* --- Campaign.run on a synthetic campaign --- *)

let seed = 11

(* The generator sees only its iteration's rng, so the synthetic campaign
   recognises an iteration by the first draw of [Campaign.derive]. *)
let key rng = Amac.Rng.int rng 1_000_000_000
let iteration_of = Hashtbl.create 64

let () =
  for i = 0 to 63 do
    Hashtbl.replace iteration_of (key (Campaign.derive ~seed ~iteration:i)) i
  done

(* A case is an int that fails while it is >= 3. The default pass proposes
   k-1 first, so shrinking walks down one step per replay; the replay of 4
   raises Invalid_argument. *)
let synthetic ?(replays = ref 0) ?(fail_at = []) ?(raise_at = -1)
    ?(passes = [ (fun k -> List.init k (fun i -> k - 1 - i)) ]) () :
    (int, int) Campaign.t =
  let judge k = if k >= 3 then [ k ] else [] in
  let generate rng =
    let i = Hashtbl.find iteration_of (key rng) in
    if i = raise_at then failwith "synthetic";
    if List.mem i fail_at then (10 + i, judge (10 + i)) else (0, [])
  in
  let replay k =
    incr replays;
    if k = 4 then invalid_arg "rejected candidate";
    judge k
  in
  {
    generate;
    shrink = Some { replay; passes };
    pp = (fun fmt cx -> Format.fprintf fmt "%d->%d" cx.original cx.case);
  }

let test_minimum_failing_iteration () =
  List.iter
    (fun jobs ->
      let campaign = synthetic ~fail_at:[ 13; 6 ] () in
      let o = Campaign.run ~jobs campaign ~iterations:40 ~seed in
      let cx = Option.get o.counterexample in
      let at = Printf.sprintf " at %d jobs" jobs in
      Alcotest.(check int) ("iteration 6" ^ at) 6 cx.iteration;
      Alcotest.(check int) ("iterations_run" ^ at) 7 o.iterations_run;
      Alcotest.(check int) ("original" ^ at) 16 cx.original;
      (* 4 is rejected by its replay, so the fixpoint settles on 3. *)
      Alcotest.(check int) ("shrunk past the rejected candidate" ^ at) 3
        cx.case;
      Alcotest.(check (list int)) ("violations of the shrunk case" ^ at) [ 3 ]
        cx.violations)
    [ 1; 2; 4 ]

let test_progress_in_order () =
  let campaign = synthetic ~fail_at:[ 21 ] () in
  let ticks = ref [] in
  ignore
    (Campaign.run ~jobs:2
       ~progress:(fun i -> ticks := i :: !ticks)
       campaign ~iterations:40 ~seed);
  Alcotest.(check (list int)) "one tick per scanned iteration, up to 21"
    (List.init 22 Fun.id) (List.rev !ticks)

let test_shrink_budget () =
  List.iter
    (fun max_shrink_runs ->
      let replays = ref 0 in
      let campaign = synthetic ~replays ~fail_at:[ 2 ] () in
      let o = Campaign.run ~max_shrink_runs campaign ~iterations:10 ~seed in
      (* 12 needs more steps than any budget here, so the shrinker spends
         all of it; the final replay of the shrunk case is outside it. *)
      Alcotest.(check int)
        (Printf.sprintf "budget of %d shrink replays" max_shrink_runs)
        max_shrink_runs (!replays - 1);
      Alcotest.(check bool) "still failing" true
        ((Option.get o.counterexample).violations <> []))
    [ 0; 1; 5 ]

let test_invalid_argument_rejects () =
  (* The only candidate raises Invalid_argument: rejected, not propagated,
     and the case is reported unshrunk. *)
  let campaign = synthetic ~fail_at:[ 0 ] ~passes:[ (fun _ -> [ 4 ]) ] () in
  let o = Campaign.run campaign ~iterations:5 ~seed in
  let cx = Option.get o.counterexample in
  Alcotest.(check int) "unshrunk" 10 cx.case

let test_exception_names_iteration () =
  List.iter
    (fun jobs ->
      let campaign = synthetic ~raise_at:5 ~fail_at:[ 9 ] () in
      match Campaign.run ~jobs campaign ~iterations:40 ~seed with
      | _ -> Alcotest.fail "expected Campaign.Raised"
      | exception Campaign.Raised { iteration; exn } ->
          Alcotest.(check int)
            (Printf.sprintf "iteration 5 at %d jobs" jobs)
            5 iteration;
          Alcotest.(check bool) "original exception kept" true
            (exn = Failure "synthetic"))
    [ 1; 3 ]

(* --- real campaigns against their sequential baselines --- *)

let clique_only = { Fuzz.default with kinds = [ Fuzz.Clique ] }

let render (c : _ Campaign.t) (o : _ Campaign.outcome) =
  Format.asprintf "iterations_run=%d %a" o.iterations_run
    (Format.pp_print_option
       ~none:(fun fmt () -> Format.pp_print_string fmt "clean")
       c.pp)
    o.counterexample

let same_at_jobs ?(iterations = 120) name campaign ~seed jobs_list =
  let base = render campaign (Campaign.run campaign ~iterations ~seed) in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "%s: identical report at %d domains" name jobs)
        base
        (render campaign (Campaign.run ~jobs campaign ~iterations ~seed)))
    jobs_list

let test_run_par_identical_on_failure () =
  (* The literal variant fails within the budget: the 4-domain campaign
     must report the same minimum failing iteration, the same shrunk
     counterexample — the same bytes. *)
  same_at_jobs "literal"
    (Fuzz.campaign clique_only Consensus.Two_phase.literal)
    ~seed:1 [ 2; 4 ]

let test_run_par_identical_on_clean () =
  same_at_jobs "two-phase"
    (Fuzz.campaign clique_only Consensus.Two_phase.algorithm)
    ~seed:1 [ 4 ]

let test_smr_and_shard_campaigns_parallel () =
  same_at_jobs ~iterations:12 "smr"
    (Smr_fuzz.campaign { Smr_fuzz.default with cmds = 12; max_time = 200_000 })
    ~seed:2026 [ 2 ];
  same_at_jobs ~iterations:8 "shard"
    (Shard_fuzz.campaign { Shard_fuzz.default with cmds = 16 })
    ~seed:9 [ 2 ]

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "map keeps input order" `Quick test_map_order;
          Alcotest.test_case "empty + singleton" `Quick
            test_map_empty_and_singleton;
          Alcotest.test_case "lowest-index exception wins" `Quick
            test_lowest_index_exception_wins;
          Alcotest.test_case "pool survives an exception" `Quick
            test_pool_survives_exception;
          Alcotest.test_case "domains clamped to >= 1" `Quick
            test_clamps_to_one;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "minimum failing iteration (1/2/4 domains)"
            `Quick test_minimum_failing_iteration;
          Alcotest.test_case "progress ticks in order" `Quick
            test_progress_in_order;
          Alcotest.test_case "shrink replay budget" `Quick test_shrink_budget;
          Alcotest.test_case "Invalid_argument rejects a candidate" `Quick
            test_invalid_argument_rejects;
          Alcotest.test_case "exception names its iteration (1/3 domains)"
            `Quick test_exception_names_iteration;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "byte-identical failure report (2/4 domains)"
            `Quick test_run_par_identical_on_failure;
          Alcotest.test_case "byte-identical clean report" `Quick
            test_run_par_identical_on_clean;
          Alcotest.test_case "smr and shard campaigns at 2 domains" `Quick
            test_smr_and_shard_campaigns_parallel;
        ] );
    ]
