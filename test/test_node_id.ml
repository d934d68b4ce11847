let test_unique_exn () =
  Alcotest.(check int) "id value" 9 (Amac.Node_id.unique_exn (Id 9));
  Alcotest.check_raises "anonymous raises"
    (Invalid_argument "Node_id.unique_exn: anonymous node has no unique id")
    (fun () -> ignore (Amac.Node_id.unique_exn Anonymous))

let ids_of = Array.map Amac.Node_id.unique_exn

let test_dense () =
  let ids = Amac.Node_id.identity_assignment ~n:5 ~kind:`Dense in
  Alcotest.(check (array int)) "dense" [| 0; 1; 2; 3; 4 |] (ids_of ids)

let test_offset () =
  let ids = Amac.Node_id.identity_assignment ~n:3 ~kind:(`Offset 100) in
  Alcotest.(check (array int)) "offset" [| 100; 101; 102 |] (ids_of ids)

let test_anonymous () =
  let ids = Amac.Node_id.identity_assignment ~n:4 ~kind:`Anonymous in
  Array.iter
    (fun id ->
      Alcotest.(check bool) "anon" true (id = Amac.Node_id.Anonymous))
    ids

let prop_shuffled_is_permutation =
  QCheck.Test.make ~name:"shuffled ids are a permutation of 0..n-1" ~count:100
    QCheck.(pair small_int (int_range 1 50))
    (fun (seed, n) ->
      let rng = Amac.Rng.create seed in
      let ids =
        Amac.Node_id.identity_assignment ~n ~kind:(`Shuffled rng) |> ids_of
      in
      List.sort Int.compare (Array.to_list ids) = List.init n (fun i -> i))

let prop_shuffled_is_deterministic =
  QCheck.Test.make ~name:"shuffled ids are deterministic in the seed"
    ~count:100
    QCheck.(pair small_int (int_range 1 50))
    (fun (seed, n) ->
      let draw () =
        Amac.Node_id.identity_assignment ~n
          ~kind:(`Shuffled (Amac.Rng.create seed))
        |> ids_of
      in
      draw () = draw ())

let () =
  Alcotest.run "node_id"
    [
      ( "unit",
        [
          Alcotest.test_case "unique_exn" `Quick test_unique_exn;
          Alcotest.test_case "dense assignment" `Quick test_dense;
          Alcotest.test_case "offset assignment" `Quick test_offset;
          Alcotest.test_case "anonymous assignment" `Quick test_anonymous;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_shuffled_is_permutation;
          QCheck_alcotest.to_alcotest prop_shuffled_is_deterministic;
        ] );
    ]
