module T = Amac.Topology

let test_clique () =
  let g = T.clique 6 in
  Alcotest.(check int) "size" 6 (T.size g);
  Alcotest.(check int) "edges" 15 (List.length (T.edges g));
  Alcotest.(check int) "diameter" 1 (T.diameter g);
  Alcotest.(check int) "degree" 5 (T.degree g 3)

let test_line () =
  let g = T.line 8 in
  Alcotest.(check int) "diameter" 7 (T.diameter g);
  Alcotest.(check int) "endpoint degree" 1 (T.degree g 0);
  Alcotest.(check int) "inner degree" 2 (T.degree g 4);
  Alcotest.(check (list int)) "neighbors of 3" [ 2; 4 ] (T.neighbors g 3)

let test_single_node () =
  let g = T.line 1 in
  Alcotest.(check int) "size" 1 (T.size g);
  Alcotest.(check bool) "connected" true (T.is_connected g);
  Alcotest.(check int) "diameter" 0 (T.diameter g)

let test_ring () =
  let g = T.ring 10 in
  Alcotest.(check int) "diameter" 5 (T.diameter g);
  Alcotest.(check int) "edges" 10 (List.length (T.edges g));
  Alcotest.(check bool) "wrap edge" true (T.has_edge g 9 0)

let test_star () =
  let g = T.star 9 in
  Alcotest.(check int) "diameter" 2 (T.diameter g);
  Alcotest.(check int) "hub degree" 8 (T.degree g 0);
  Alcotest.(check int) "leaf degree" 1 (T.degree g 5)

let test_grid () =
  let g = T.grid ~width:4 ~height:3 in
  Alcotest.(check int) "size" 12 (T.size g);
  Alcotest.(check int) "diameter" 5 (T.diameter g);
  (* corner, edge, inner degrees *)
  Alcotest.(check int) "corner" 2 (T.degree g 0);
  Alcotest.(check int) "inner" 4 (T.degree g 5)

let test_torus () =
  let g = T.torus ~width:4 ~height:4 in
  Alcotest.(check int) "size" 16 (T.size g);
  Alcotest.(check int) "regular degree" 4 (T.degree g 0);
  Alcotest.(check int) "diameter" 4 (T.diameter g)

let test_binary_tree () =
  let g = T.binary_tree 7 in
  Alcotest.(check int) "size" 7 (T.size g);
  Alcotest.(check int) "edges" 6 (List.length (T.edges g));
  Alcotest.(check int) "diameter" 4 (T.diameter g);
  Alcotest.(check int) "root degree" 2 (T.degree g 0)

let test_star_of_lines () =
  let g = T.star_of_lines ~arms:3 ~arm_len:4 in
  Alcotest.(check int) "size" 13 (T.size g);
  Alcotest.(check int) "diameter" 8 (T.diameter g);
  Alcotest.(check int) "hub degree" 3 (T.degree g 0)

let test_barbell () =
  let g = Fixtures.barbell 5 in
  Alcotest.(check int) "size" 10 (T.size g);
  Alcotest.(check int) "diameter" 3 (T.diameter g);
  Alcotest.(check bool) "bridge" true (T.has_edge g 4 5);
  Alcotest.(check int) "bridge end degree" 5 (T.degree g 4)

let test_of_edges_validation () =
  Alcotest.check_raises "self loop"
    (Invalid_argument "Topology: self-loop at node 2") (fun () ->
      ignore (T.of_edges ~n:3 [ (2, 2) ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Topology: duplicate edge (0,1)") (fun () ->
      ignore (T.of_edges ~n:3 [ (0, 1); (1, 0) ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Topology: edge (0,5) out of range for n=3") (fun () ->
      ignore (T.of_edges ~n:3 [ (0, 5) ]))

let test_of_edges_sorts_neighbours () =
  let g = T.of_edges ~n:4 [ (3, 0); (0, 1); (2, 0); (2, 1) ] in
  Alcotest.(check (list int)) "hub" [ 1; 2; 3 ] (T.neighbors g 0);
  Alcotest.(check (list int)) "node 1" [ 0; 2 ] (T.neighbors g 1);
  Alcotest.(check (list int)) "node 2" [ 0; 1 ] (T.neighbors g 2);
  Alcotest.(check (list int)) "leaf" [ 0 ] (T.neighbors g 3)

let test_of_edges_duplicate_among_others () =
  (* The repeat is not adjacent in the input and arrives reversed; the
     message still names the normalised pair. *)
  Alcotest.check_raises "reversed, separated"
    (Invalid_argument "Topology: duplicate edge (0,2)") (fun () ->
      ignore (T.of_edges ~n:3 [ (0, 2); (1, 2); (2, 0) ]));
  Alcotest.check_raises "same orientation"
    (Invalid_argument "Topology: duplicate edge (1,3)") (fun () ->
      ignore (T.of_edges ~n:4 [ (1, 3); (0, 1); (1, 3) ]))

let test_of_edges_empty () =
  let g = T.of_edges ~n:0 [] in
  Alcotest.(check int) "size" 0 (T.size g);
  Alcotest.(check int) "edges" 0 (List.length (T.edges g));
  let g = T.of_edges ~n:3 [] in
  Alcotest.(check (list int)) "isolated node" [] (T.neighbors g 1);
  Alcotest.check_raises "negative n"
    (Invalid_argument "Topology.of_edges: negative n") (fun () ->
      ignore (T.of_edges ~n:(-1) []))

let test_disconnected () =
  let g = T.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "not connected" false (T.is_connected g);
  Alcotest.check_raises "diameter raises"
    (Invalid_argument "Topology.eccentricity: graph is disconnected")
    (fun () -> ignore (T.diameter g))

let test_pp_summary () =
  let show g = Format.asprintf "%a" T.pp g in
  Alcotest.(check string) "connected" "n=5 m=4 D=4" (show (T.line 5));
  Alcotest.(check string) "disconnected" "n=4 m=2 (disconnected)"
    (show (T.of_edges ~n:4 [ (0, 1); (2, 3) ]))

(* In-place deltas: an edge that is already there (in either orientation)
   or absent is refused with the graph left as it was. *)
let test_add_edge_rejects_existing () =
  let g = T.line 4 in
  Alcotest.check_raises "edge already present"
    (Invalid_argument "Topology.add_edge: edge (2,1) exists") (fun () ->
      T.add_edge g 2 1);
  Alcotest.check_raises "self loop"
    (Invalid_argument "Topology: self-loop at node 3") (fun () ->
      T.add_edge g 3 3);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Topology: edge (0,4) out of range for n=4") (fun () ->
      T.add_edge g 0 4);
  Alcotest.(check (list (pair int int))) "unchanged"
    [ (0, 1); (1, 2); (2, 3) ]
    (T.edges g)

let test_remove_edge_rejects_absent () =
  let g = T.line 4 in
  Alcotest.check_raises "edge absent"
    (Invalid_argument "Topology.remove_edge: no edge (3,0)") (fun () ->
      T.remove_edge g 3 0);
  T.apply_delta g (Remove_edge (2, 1));
  Alcotest.(check bool) "removed both ways" false
    (T.has_edge g 1 2 || T.has_edge g 2 1);
  Alcotest.check_raises "removed twice"
    (Invalid_argument "Topology.remove_edge: no edge (1,2)") (fun () ->
      T.remove_edge g 1 2)

let test_copy_isolates_deltas () =
  let g = T.ring 5 in
  let c = T.copy g in
  T.apply_delta c (Add_edge (3, 0));
  T.apply_delta c (Remove_edge (1, 2));
  Alcotest.(check (list int)) "copy: sorted after insert" [ 1; 3; 4 ]
    (T.neighbors c 0);
  Alcotest.(check bool) "copy lost (1,2)" false (T.has_edge c 1 2);
  Alcotest.(check (list (pair int int))) "original untouched"
    [ (0, 1); (0, 4); (1, 2); (2, 3); (3, 4) ]
    (T.edges g);
  T.add_edge g 1 3;
  Alcotest.(check bool) "and the other way" false (T.has_edge c 1 3)

let test_edges_each_once () =
  let g = T.clique 4 in
  Alcotest.(check int) "edge count" 6 (List.length (T.edges g));
  List.iter
    (fun (u, v) ->
      if u >= v then Alcotest.fail "edge not normalized (u < v expected)")
    (T.edges g)

let rec strictly_increasing = function
  | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
  | [ _ ] | [] -> true

(* Property: [of_edges] agrees with a reference built from normalised
   pairs — it raises iff some pair repeats, and otherwise each neighbour
   list is exactly the sorted set of partners. *)
let prop_of_edges_matches_reference =
  QCheck.Test.make ~name:"of_edges matches a normalised-pair reference"
    ~count:300
    QCheck.(list_of_size Gen.(0 -- 12) (pair (int_range 0 5) (int_range 0 5)))
    (fun raw ->
      let n = 6 in
      let pairs = List.filter (fun (u, v) -> u <> v) raw in
      let norm = List.map (fun (u, v) -> (min u v, max u v)) pairs in
      let has_dup =
        List.length (List.sort_uniq compare norm) <> List.length norm
      in
      match T.of_edges ~n pairs with
      | exception Invalid_argument _ -> has_dup
      | g ->
          (not has_dup)
          && List.length (T.edges g) = List.length norm
          && List.for_all
               (fun u ->
                 T.neighbors g u
                 = List.sort_uniq Int.compare
                     (List.filter_map
                        (fun (a, b) ->
                          if a = u then Some b
                          else if b = u then Some a
                          else None)
                        norm))
               (List.init n Fun.id))

let prop_families_sorted_neighbours =
  QCheck.Test.make ~name:"every family keeps neighbour lists sorted"
    ~count:60
    QCheck.(pair small_int (int_range 1 12))
    (fun (seed, n) ->
      let rng = Amac.Rng.create seed in
      List.for_all
        (fun g ->
          List.for_all
            (fun u -> strictly_increasing (T.neighbors g u))
            (List.init (T.size g) Fun.id))
        [
          T.clique n;
          T.line n;
          T.star n;
          T.binary_tree n;
          T.grid ~width:n ~height:2;
          T.random_connected rng ~n ~extra_edges:n;
        ])

let prop_random_connected =
  QCheck.Test.make ~name:"random_connected is connected with right size"
    ~count:150
    QCheck.(triple small_int (int_range 1 60) (int_range 0 30))
    (fun (seed, n, extra) ->
      let rng = Amac.Rng.create seed in
      let g = T.random_connected rng ~n ~extra_edges:extra in
      T.size g = n && T.is_connected g && List.length (T.edges g) >= n - 1)

let prop_grid_diameter =
  QCheck.Test.make ~name:"grid diameter = (w-1)+(h-1)" ~count:50
    QCheck.(pair (int_range 1 8) (int_range 1 8))
    (fun (w, h) ->
      T.diameter (T.grid ~width:w ~height:h) = w - 1 + (h - 1))

(* Property: toggling random pairs in place on a copy ends in exactly the
   graph [of_edges] builds from the final edge set, and never touches the
   original. *)
let prop_deltas_match_of_edges =
  QCheck.Test.make ~name:"in-place deltas agree with of_edges" ~count:200
    QCheck.(
      pair small_int
        (list_of_size Gen.(0 -- 20) (pair (int_range 0 5) (int_range 0 5))))
    (fun (seed, toggles) ->
      let n = 6 in
      let g = T.random_connected (Amac.Rng.create seed) ~n ~extra_edges:3 in
      let before = T.edges g in
      let work = T.copy g in
      let expected =
        List.fold_left
          (fun set (u, v) ->
            if u = v then set
            else
              let e = (min u v, max u v) in
              if T.has_edge work u v then (
                T.apply_delta work (Remove_edge (u, v));
                List.filter (( <> ) e) set)
              else (
                T.apply_delta work (Add_edge (u, v));
                e :: set))
          before toggles
      in
      let rebuilt = T.of_edges ~n expected in
      T.edges g = before
      && T.edges work = List.sort compare expected
      && List.for_all
           (fun u -> T.neighbors work u = T.neighbors rebuilt u)
           (List.init n Fun.id))

let prop_added_edge_keeps_diameter =
  QCheck.Test.make ~name:"an added edge never raises the diameter" ~count:100
    QCheck.(
      pair (pair small_int (int_range 2 20)) (pair small_nat small_nat))
    (fun ((seed, n), (a, b)) ->
      let g = T.random_connected (Amac.Rng.create seed) ~n ~extra_edges:2 in
      let u = a mod n in
      match
        List.filter
          (fun v -> v <> u && not (T.has_edge g u v))
          (List.init n Fun.id)
      with
      | [] -> true
      | absent ->
          let g' = T.copy g in
          T.add_edge g' u (List.nth absent (b mod List.length absent));
          T.diameter g' <= T.diameter g)

let () =
  Alcotest.run "topology"
    [
      ( "families",
        [
          Alcotest.test_case "clique" `Quick test_clique;
          Alcotest.test_case "line" `Quick test_line;
          Alcotest.test_case "single node" `Quick test_single_node;
          Alcotest.test_case "ring" `Quick test_ring;
          Alcotest.test_case "star" `Quick test_star;
          Alcotest.test_case "grid" `Quick test_grid;
          Alcotest.test_case "torus" `Quick test_torus;
          Alcotest.test_case "binary tree" `Quick test_binary_tree;
          Alcotest.test_case "barbell" `Quick test_barbell;
          Alcotest.test_case "star of lines" `Quick test_star_of_lines;
        ] );
      ( "structure",
        [
          Alcotest.test_case "of_edges validation" `Quick
            test_of_edges_validation;
          Alcotest.test_case "of_edges sorts neighbours" `Quick
            test_of_edges_sorts_neighbours;
          Alcotest.test_case "of_edges duplicate among others" `Quick
            test_of_edges_duplicate_among_others;
          Alcotest.test_case "of_edges empty" `Quick test_of_edges_empty;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          Alcotest.test_case "edges each once" `Quick test_edges_each_once;
          Alcotest.test_case "pp summary" `Quick test_pp_summary;
          Alcotest.test_case "add_edge rejects existing" `Quick
            test_add_edge_rejects_existing;
          Alcotest.test_case "remove_edge rejects absent" `Quick
            test_remove_edge_rejects_absent;
          Alcotest.test_case "copy isolates deltas" `Quick
            test_copy_isolates_deltas;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_random_connected;
          QCheck_alcotest.to_alcotest prop_grid_diameter;
          QCheck_alcotest.to_alcotest prop_of_edges_matches_reference;
          QCheck_alcotest.to_alcotest prop_families_sorted_neighbours;
          QCheck_alcotest.to_alcotest prop_deltas_match_of_edges;
          QCheck_alcotest.to_alcotest prop_added_edge_keeps_diameter;
        ] );
    ]
