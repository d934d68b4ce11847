(* Satellite: property tests for the seeded topology generators. Each
   generator family is checked for connectivity, degree bounds and
   determinism (same seed => byte-identical edge set); the churn/mobility
   schedules are checked against a functional model of delta application
   (apply in place == rebuild from the final edge set) and for keeping the
   graph connected after every delta; the RGG is checked against its own
   embedding (edge iff within radius, modulo connectivity patching). *)

module T = Amac.Topology
module G = Topo_gen

let edge_set g = List.sort compare (T.edges g)

(* ------------------------------------------------------------------ *)
(* Spec plumbing: names, sizes, validation. *)

let test_names_and_sizes () =
  let cases =
    [
      (G.Grid { width = 20; height = 20 }, "grid:20x20", 400);
      (G.Rgg { n = 1000; radius = 0.1 }, "rgg:1000", 1000);
      ( G.Cluster { clusters = 8; size = 12; extra_bridges = 4 },
        "cluster:8x12+4",
        96 );
    ]
  in
  List.iter
    (fun (spec, name, size) ->
      Alcotest.(check string) "name" name (G.name spec);
      Alcotest.(check int) (name ^ " size") size (G.size spec);
      Alcotest.(check int)
        (name ^ " generated size")
        size
        (T.size (G.generate ~seed:1 spec)))
    cases

let test_validation () =
  let degenerate =
    [
      G.Grid { width = 1; height = 1 };
      G.Grid { width = 0; height = 5 };
      G.Rgg { n = 1; radius = 0.5 };
      G.Rgg { n = 10; radius = 0.0 };
      G.Cluster { clusters = 0; size = 4; extra_bridges = 0 };
      G.Cluster { clusters = 2; size = 1; extra_bridges = 0 };
      G.Cluster { clusters = 2; size = 4; extra_bridges = -1 };
    ]
  in
  List.iter
    (fun spec ->
      match G.generate ~seed:3 spec with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "degenerate spec %s accepted" (G.name spec))
    degenerate

let test_grid_delegates () =
  (* The grid spec is seed-independent and identical to Topology.grid. *)
  let a = G.generate ~seed:1 (G.Grid { width = 7; height = 5 }) in
  let b = G.generate ~seed:999 (G.Grid { width = 7; height = 5 }) in
  Alcotest.(check bool)
    "seed-independent" true
    (edge_set a = edge_set b);
  Alcotest.(check bool)
    "matches Topology.grid" true
    (edge_set a = edge_set (T.grid ~width:7 ~height:5))

(* ------------------------------------------------------------------ *)
(* Properties per generator. *)

let specs_of (seed, pick) =
  match pick mod 3 with
  | 0 -> G.Grid { width = 2 + (seed mod 6); height = 1 + (pick mod 5) }
  | 1 ->
      G.Rgg
        {
          n = 4 + (pick mod 60);
          radius = 0.2 +. (0.02 *. float_of_int (seed mod 20));
        }
  | _ ->
      G.Cluster
        {
          clusters = 1 + (pick mod 5);
          size = 2 + (seed mod 6);
          extra_bridges = pick mod 4;
        }

let prop_connected_and_in_range =
  QCheck.Test.make ~name:"every generated topology is connected, right size"
    ~count:200
    QCheck.(pair small_int small_int)
    (fun (seed, pick) ->
      let spec = specs_of (seed, pick) in
      let g = G.generate ~seed spec in
      T.size g = G.size spec && T.is_connected g)

let prop_deterministic =
  QCheck.Test.make
    ~name:"same (spec, seed) => byte-identical edge set" ~count:150
    QCheck.(pair small_int small_int)
    (fun (seed, pick) ->
      let spec = specs_of (seed, pick) in
      edge_set (G.generate ~seed spec) = edge_set (G.generate ~seed spec))

let test_seed_sensitivity () =
  (* Not a law — but these particular draws must differ, or the "seeded"
     generator is ignoring its seed. *)
  let rgg seed = edge_set (G.generate ~seed (G.Rgg { n = 50; radius = 0.3 })) in
  Alcotest.(check bool) "rgg seeds differ" true (rgg 1 <> rgg 2);
  let cl seed =
    edge_set
      (G.generate ~seed (G.Cluster { clusters = 3; size = 4; extra_bridges = 2 }))
  in
  Alcotest.(check bool) "cluster seeds differ" true (cl 1 <> cl 2)

let prop_grid_degree_bound =
  QCheck.Test.make ~name:"grid degrees are <= 4" ~count:50
    QCheck.(pair (int_range 2 9) (int_range 2 9))
    (fun (w, h) ->
      let g = G.generate ~seed:0 (G.Grid { width = w; height = h }) in
      List.init (T.size g) (fun u -> T.degree g u)
      |> List.for_all (fun d -> d >= 1 && d <= 4))

let prop_cluster_degree_bound =
  (* Every node keeps its full clique (degree >= size-1); bridges add at
     most the total bridge count on top. *)
  QCheck.Test.make ~name:"cluster degrees within clique + bridge budget"
    ~count:100
    QCheck.(triple small_int (int_range 2 5) (int_range 2 6))
    (fun (seed, clusters, size) ->
      let extra = seed mod 3 in
      let g = G.generate ~seed (G.Cluster { clusters; size; extra_bridges = extra }) in
      let bridges = List.length (T.edges g) - (clusters * size * (size - 1) / 2) in
      bridges >= 0
      && List.init (T.size g) (fun u -> T.degree g u)
         |> List.for_all (fun d -> d >= size - 1 && d <= size - 1 + bridges))

(* ------------------------------------------------------------------ *)
(* RGG semantics: edges against the embedding. *)

let within_radius_pairs points radius =
  let n = Array.length points in
  let r2 = radius *. radius in
  let out = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let ux, uy = points.(u) and vx, vy = points.(v) in
      let dx = ux -. vx and dy = uy -. vy in
      if (dx *. dx) +. (dy *. dy) <= r2 then out := (u, v) :: !out
    done
  done;
  List.sort compare !out

let prop_rgg_radius_semantics =
  QCheck.Test.make
    ~name:"rgg edges = within-radius pairs (+ patch bridges only if needed)"
    ~count:80
    QCheck.(pair small_int (int_range 4 60))
    (fun (seed, n) ->
      let radius = 0.15 +. (0.015 *. float_of_int (seed mod 25)) in
      let spec = G.Rgg { n; radius } in
      let g = G.generate ~seed spec in
      let points = Option.get (G.positions ~seed spec) in
      let pure = within_radius_pairs points radius in
      let got = edge_set g in
      (* Patching only ever adds, and adds nothing when the pure RGG is
         already connected. *)
      let pure_connected =
        n <= 1 || T.is_connected (T.of_edges ~n pure)
      in
      List.for_all (fun e -> List.mem e got) pure
      && (not pure_connected || got = pure))

let prop_rgg_connectivity_radius =
  QCheck.Test.make
    ~name:"connectivity_radius draws are connected before patching"
    ~count:40
    QCheck.(pair small_int (int_range 30 120))
    (fun (seed, n) ->
      let radius = G.connectivity_radius ~n in
      let spec = G.Rgg { n; radius } in
      let points = Option.get (G.positions ~seed spec) in
      (* Above-threshold radius: the unpatched graph itself is connected
         for the overwhelming majority of draws. Allow the rare patched
         draw; the generated graph must always be connected. *)
      let pure = within_radius_pairs points radius in
      let pure_ok = T.is_connected (T.of_edges ~n pure) in
      let g = G.generate ~seed spec in
      T.is_connected g
      && ((not pure_ok) || edge_set g = pure))

let test_connectivity_radius_formula () =
  let n = 1000 in
  let r = G.connectivity_radius ~n in
  let expected = sqrt (3.0 *. log (float_of_int n) /. float_of_int n) in
  Alcotest.(check (float 1e-12)) "sqrt(3 ln n / n)" expected r

(* ------------------------------------------------------------------ *)
(* Delta schedules: in-place application == functional rebuild, and the
   graph stays connected after every delta. *)

let norm (u, v) = if u < v then (u, v) else (v, u)

(* Functional model of one delta over a normalized edge list. *)
let apply_functional edges delta =
  match delta with
  | T.Add_edge (u, v) ->
      let e = norm (u, v) in
      if List.mem e edges then Alcotest.failf "model: adding present edge";
      e :: edges
  | T.Remove_edge (u, v) ->
      let e = norm (u, v) in
      if not (List.mem e edges) then
        Alcotest.failf "model: removing absent edge";
      List.filter (fun e' -> e' <> e) edges

(* Walk a schedule: after EVERY delta, in-place application must equal an
   [of_edges] rebuild of the functional model; at every burst boundary
   (last delta of a timestamp) the graph must be connected. The source
   topology must come out untouched. *)
let check_schedule ~name g schedule =
  let before = edge_set g in
  let times = List.map fst schedule in
  Alcotest.(check (list int))
    (name ^ ": schedule sorted by time")
    (List.sort compare times) times;
  let work = T.copy g in
  let n = T.size g in
  let rec walk model = function
    | [] -> ()
    | (time, delta) :: rest ->
        let model = apply_functional model delta in
        T.apply_delta work delta;
        Alcotest.(check bool)
          (name ^ ": in-place == of_edges rebuild")
          true
          (edge_set work = edge_set (T.of_edges ~n model));
        let burst_ends =
          match rest with [] -> true | (t', _) :: _ -> t' <> time
        in
        if burst_ends then
          Alcotest.(check bool)
            (name ^ ": connected at burst boundary")
            true (T.is_connected work);
        walk model rest
  in
  walk before schedule;
  Alcotest.(check bool) (name ^ ": source topology untouched") true
    (edge_set g = before)

let test_churn_model () =
  List.iter
    (fun seed ->
      let g = G.generate ~seed (G.Rgg { n = 40; radius = 0.35 }) in
      let schedule = G.churn ~seed g ~events:12 ~start:5 ~gap:3 in
      Alcotest.(check bool) "churn produced events" true (schedule <> []);
      (* Times live on the start + k*gap lattice (slots where no legal
         candidate was found are skipped, not shifted). *)
      List.iter
        (fun (t, _) ->
          Alcotest.(check int) "churn time on lattice" 0 ((t - 5) mod 3);
          Alcotest.(check bool) "churn time in range" true
            (t >= 5 && t <= 5 + (11 * 3)))
        schedule;
      check_schedule ~name:(Printf.sprintf "churn(seed=%d)" seed) g schedule)
    [ 1; 2; 7; 42 ]

let test_churn_on_tree () =
  (* A tree has no removable edge until churn itself adds chords: the first
     delta must be an addition, and connectivity holds throughout. *)
  let g = T.binary_tree 15 in
  let schedule = G.churn ~seed:5 g ~events:6 ~start:0 ~gap:1 in
  check_schedule ~name:"churn-on-tree" g schedule;
  (match schedule with
  | (_, T.Add_edge _) :: _ -> ()
  | (_, T.Remove_edge (u, v)) :: _ ->
      Alcotest.failf "churn's first delta removed tree edge (%d,%d)" u v
  | [] -> Alcotest.fail "churn on a tree produced nothing")

let test_mobility_model () =
  List.iter
    (fun seed ->
      let g =
        G.generate ~seed
          (G.Cluster { clusters = 3; size = 5; extra_bridges = 2 })
      in
      let schedule = G.mobility ~seed g ~moves:5 ~start:10 ~gap:4 in
      Alcotest.(check bool) "mobility produced bursts" true (schedule <> []);
      check_schedule ~name:(Printf.sprintf "mobility(seed=%d)" seed) g
        schedule;
      (* Bursts share timestamps on the start+gap lattice. *)
      List.iter
        (fun (t, _) ->
          Alcotest.(check int) "burst time on lattice" 0 ((t - 10) mod 4))
        schedule)
    [ 3; 11; 42 ]

let test_schedule_validation () =
  let g = T.clique 4 in
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" name
  in
  expect_invalid "negative events" (fun () ->
      G.churn ~seed:1 g ~events:(-1) ~start:0 ~gap:1);
  expect_invalid "zero gap" (fun () ->
      G.churn ~seed:1 g ~events:2 ~start:0 ~gap:0);
  expect_invalid "negative start" (fun () ->
      G.mobility ~seed:1 g ~moves:2 ~start:(-3) ~gap:2)

let () =
  Alcotest.run "topo_gen"
    [
      ( "specs",
        [
          Alcotest.test_case "names and sizes" `Quick test_names_and_sizes;
          Alcotest.test_case "degenerate specs rejected" `Quick
            test_validation;
          Alcotest.test_case "grid delegates to Topology.grid" `Quick
            test_grid_delegates;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "connectivity radius formula" `Quick
            test_connectivity_radius_formula;
        ] );
      ( "generators",
        [
          QCheck_alcotest.to_alcotest prop_connected_and_in_range;
          QCheck_alcotest.to_alcotest prop_deterministic;
          QCheck_alcotest.to_alcotest prop_grid_degree_bound;
          QCheck_alcotest.to_alcotest prop_cluster_degree_bound;
          QCheck_alcotest.to_alcotest prop_rgg_radius_semantics;
          QCheck_alcotest.to_alcotest prop_rgg_connectivity_radius;
        ] );
      ( "delta schedules",
        [
          Alcotest.test_case "churn == functional rebuild" `Quick
            test_churn_model;
          Alcotest.test_case "churn on a tree" `Quick test_churn_on_tree;
          Alcotest.test_case "mobility == functional rebuild" `Quick
            test_mobility_model;
          Alcotest.test_case "schedule validation" `Quick
            test_schedule_validation;
        ] );
    ]
