(* Unit and property tests for the event queue. *)

let test_empty () =
  let q = Amac.Pqueue.create () in
  Alcotest.(check bool) "is_empty" true (Amac.Pqueue.is_empty q);
  Alcotest.(check int) "length" 0 (Amac.Pqueue.length q);
  Alcotest.check_raises "pop raises" Not_found (fun () ->
      ignore (Amac.Pqueue.pop q))

let test_ordering () =
  let q = Amac.Pqueue.create () in
  List.iter
    (fun key -> Amac.Pqueue.add q ~key (string_of_int key))
    [ 5; 1; 9; 3; 7; 2; 8 ];
  let popped = List.init 7 (fun _ -> fst (Amac.Pqueue.pop q)) in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] popped

let test_fifo_ties () =
  let q = Amac.Pqueue.create () in
  List.iter (fun v -> Amac.Pqueue.add q ~key:4 v) [ "a"; "b"; "c" ];
  Amac.Pqueue.add q ~key:1 "first";
  let values = List.init 4 (fun _ -> snd (Amac.Pqueue.pop q)) in
  Alcotest.(check (list string))
    "insertion order within a key"
    [ "first"; "a"; "b"; "c" ]
    values

let test_min () =
  let q = Amac.Pqueue.create () in
  Amac.Pqueue.add q ~key:3 "x";
  Amac.Pqueue.add q ~key:1 "y";
  Alcotest.(check int) "min key" 1 (Amac.Pqueue.min_key q);
  Alcotest.(check int) "min_key does not remove" 2 (Amac.Pqueue.length q);
  Alcotest.(check string) "pop_min takes the min's value" "y"
    (Amac.Pqueue.pop_min q);
  Alcotest.(check int) "next min key" 3 (Amac.Pqueue.min_key q);
  Amac.Pqueue.clear q;
  Alcotest.check_raises "empty" Not_found (fun () ->
      ignore (Amac.Pqueue.min_key q))

let test_of_list () =
  let q = Amac.Pqueue.of_list [ (4, "a"); (1, "min"); (4, "b"); (2, "mid") ] in
  Alcotest.(check int) "length" 4 (Amac.Pqueue.length q);
  let popped = List.init 4 (fun _ -> Amac.Pqueue.pop q) in
  (* min-key order, list order breaking the key-4 tie *)
  Alcotest.(check bool) "sorted with FIFO ties" true
    (popped = [ (1, "min"); (2, "mid"); (4, "a"); (4, "b") ]);
  Alcotest.(check bool) "empty list" true
    (Amac.Pqueue.is_empty (Amac.Pqueue.of_list []))

let test_clear () =
  let q = Amac.Pqueue.create () in
  Amac.Pqueue.add q ~key:1 "x";
  Amac.Pqueue.clear q;
  Alcotest.(check bool) "cleared" true (Amac.Pqueue.is_empty q)

let test_interleaved () =
  let q = Amac.Pqueue.create () in
  Amac.Pqueue.add q ~key:10 "a";
  Amac.Pqueue.add q ~key:5 "b";
  Alcotest.(check string) "pop 5" "b" (snd (Amac.Pqueue.pop q));
  Amac.Pqueue.add q ~key:1 "c";
  Amac.Pqueue.add q ~key:20 "d";
  Alcotest.(check string) "pop 1" "c" (snd (Amac.Pqueue.pop q));
  Alcotest.(check string) "pop 10" "a" (snd (Amac.Pqueue.pop q));
  Alcotest.(check string) "pop 20" "d" (snd (Amac.Pqueue.pop q))

let test_to_list () =
  let q = Amac.Pqueue.create () in
  List.iter (fun key -> Amac.Pqueue.add q ~key key) [ 3; 1; 2 ];
  let contents = List.sort compare (Amac.Pqueue.to_list q) in
  Alcotest.(check (list (pair int int)))
    "contents" [ (1, 1); (2, 2); (3, 3) ] contents

(* Property: popping everything yields keys in non-decreasing order, and the
   multiset of keys is preserved. *)
let prop_heap_sort =
  QCheck.Test.make ~name:"pqueue pops sorted, multiset preserved" ~count:300
    QCheck.(list (int_range 0 1000))
    (fun keys ->
      let q = Amac.Pqueue.create () in
      List.iter (fun key -> Amac.Pqueue.add q ~key key) keys;
      let popped = List.init (List.length keys) (fun _ -> fst (Amac.Pqueue.pop q)) in
      popped = List.sort Int.compare keys)

(* Property: with all-equal keys the queue is exactly FIFO. *)
let prop_fifo =
  QCheck.Test.make ~name:"pqueue is FIFO at equal keys" ~count:100
    QCheck.(list small_int)
    (fun values ->
      let q = Amac.Pqueue.create () in
      List.iter (fun v -> Amac.Pqueue.add q ~key:0 v) values;
      let popped = List.init (List.length values) (fun _ -> snd (Amac.Pqueue.pop q)) in
      popped = values)

let () =
  Alcotest.run "pqueue"
    [
      ( "unit",
        [
          Alcotest.test_case "empty queue" `Quick test_empty;
          Alcotest.test_case "ordering" `Quick test_ordering;
          Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
          Alcotest.test_case "min_key and pop_min" `Quick test_min;
          Alcotest.test_case "of_list" `Quick test_of_list;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "interleaved" `Quick test_interleaved;
          Alcotest.test_case "to_list" `Quick test_to_list;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_heap_sort;
          QCheck_alcotest.to_alcotest prop_fifo;
        ] );
    ]
