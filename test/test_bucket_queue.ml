(* The engine's bucket queue against a sorted-list model: any
   interleaving of adds and pops must pop the same (key, value) sequence,
   ties in insertion order, whether a key sits in the ring, in the
   overflow, or is split between the two. Then the overflow heap alone,
   on keys that never fit the ring. Plus the ring's cell pool: it stops
   growing at a steady depth. *)

module B = Amac.Bucket_queue

type op = Add of int | Pop

(* The model: (key, value) pairs sorted by key, an insert going after
   every entry whose key is at most its own, so equal keys stay FIFO. *)
let rec insert key v = function
  | (k, _) as e :: rest when k <= key -> e :: insert key v rest
  | model -> (key, v) :: model

(* Replay [ops] on the queue and the model in lockstep; [Add d] adds the
   key [d] past the last popped key (0 before the first pop), valued by
   its insertion rank. Returns the first disagreement, if any. *)
let disagreement ~span ops =
  let b = B.create ~span and model = ref [] in
  let last = ref 0 and rank = ref 0 in
  let step = function
    | Add d ->
        let key = !last + d in
        B.add b ~key !rank;
        model := insert key !rank !model;
        incr rank;
        None
    | Pop -> (
        match !model with
        | [] -> (
            match B.pop b with
            | exception Not_found -> None
            | _ -> Some "bucket queue popped from an empty queue")
        | expected :: rest -> (
            model := rest;
            last := fst expected;
            match B.pop b with
            | exception Not_found -> Some "bucket queue empty before the model"
            | v when (B.popped_key b, v) = expected -> None
            | v ->
                Some
                  (Printf.sprintf "popped (%d,%d), model popped (%d,%d)"
                     (B.popped_key b) v (fst expected) (snd expected))))
  in
  let rec go = function
    | [] ->
        if B.length b <> List.length !model then Some "lengths differ at the end"
        else None
    | op :: rest -> (
        match step op with
        | Some _ as failure -> failure
        | None ->
            if B.length b <> List.length !model then Some "lengths differ"
            else go rest)
  in
  (* Each add queues one entry, so as many pops again drain both. *)
  match go (ops @ List.init (List.length ops) (fun _ -> Pop)) with
  | None -> if B.is_empty b then None else Some "not drained"
  | failure -> failure

let check_agree ~span ops =
  match disagreement ~span ops with
  | None -> ()
  | Some why -> Alcotest.fail why

(* Key offsets past the last pop, with [span] = 16: equal to it, inside the
   window, just past it (so a later window holds the same key in the
   ring), far beyond, and below it. *)
let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, return Pop);
        (2, return (Add 0));
        (5, map (fun d -> Add d) (int_range 1 15));
        (3, map (fun d -> Add d) (int_range 16 40));
        (1, map (fun d -> Add d) (int_range 1_000 100_000));
        (1, map (fun d -> Add (-d)) (int_range 1 20));
      ])

let pp_op = function Add d -> Printf.sprintf "Add %d" d | Pop -> "Pop"

let prop_matches_model =
  QCheck.Test.make ~name:"pops exactly what a sorted list pops" ~count:500
    QCheck.(
      make ~print:(Print.list pp_op) ~shrink:Shrink.list
        Gen.(list_size (int_range 0 300) op_gen))
    (fun ops ->
      match disagreement ~span:16 ops with
      | None -> true
      | Some why -> QCheck.Test.fail_report why)

let test_empty () =
  let q = B.create ~span:8 in
  Alcotest.(check bool) "empty" true (B.is_empty q);
  Alcotest.check_raises "pop raises" Not_found (fun () -> ignore (B.pop q));
  Alcotest.check_raises "span 0 rejected"
    (Invalid_argument "Bucket_queue.create: span must be >= 1") (fun () ->
      ignore (B.create ~span:0 : B.t))

(* Key 20 split between the overflow (added while beyond the window) and
   the ring (added once popping 14 moved the window to [14, 22)): the
   overflow's entry was first, so it pops first. *)
let test_split_tie () =
  check_agree ~span:8 [ Add 20; Add 14; Pop; Add 6; Add 6; Pop; Pop; Pop ]

(* The same split, watched directly: key 20's overflow entries (values 0
   and 1, added before the window reached 20) pop before its ring entries
   (2 and 3), and the ring's entries keep their insertion order. *)
let test_split_overflow_first () =
  let q = B.create ~span:8 in
  B.add q ~key:20 0;
  B.add q ~key:20 1;
  B.add q ~key:14 9;
  Alcotest.(check int) "first pop" 9 (B.pop q);
  Alcotest.(check int) "its key" 14 (B.popped_key q);
  B.add q ~key:20 2;
  B.add q ~key:20 3;
  B.add q ~key:15 8;
  let pop_with_key _ =
    let v = B.pop q in
    (v, B.popped_key q)
  in
  let pops = List.init 5 pop_with_key in
  Alcotest.(check (list (pair int int)))
    "overflow's share of key 20 first"
    [ (8, 15); (0, 20); (1, 20); (2, 20); (3, 20) ]
    pops;
  Alcotest.(check bool) "drained" true (B.is_empty q)

(* 10^5 add/pop cycles at a fixed depth of 200 ring entries: every pop
   frees the cell the next add takes, so the pool sizes itself once, to
   the depth, and never grows again. *)
let test_pool_bounded () =
  let q = B.create ~span:64 in
  let depth = 200 in
  for i = 0 to depth - 1 do
    B.add q ~key:(i mod 32) i
  done;
  let cells = B.cells q in
  Alcotest.(check bool) "pool holds the depth" true (cells >= depth);
  Alcotest.(check bool) "within one doubling of it" true (cells < 2 * depth);
  for i = depth to depth + 100_000 - 1 do
    ignore (B.pop q);
    B.add q ~key:(B.popped_key q + 1 + (i mod 31)) i
  done;
  Alcotest.(check int) "depth kept" depth (B.length q);
  Alcotest.(check int) "no growth over 10^5 cycles" cells (B.cells q)

(* SMR's sparse injection schedule: the ring drains, and the next key is
   far ahead in the overflow; the window jumps there, and what the
   injection schedules lands in the ring again. *)
let test_jump_to_far_key () =
  check_agree ~span:32
    (List.concat_map
       (fun gap -> [ Add gap; Pop; Add 1; Add 3; Add 3; Pop; Pop; Pop ])
       [ 5_000; 70; 1_000_000; 33; 32; 31 ])

(* An engine-like run: each pop schedules a few keys within the window, so
   the ring wraps around thousands of times. *)
let test_wraps_many_times () =
  let rng = Amac.Rng.create 5 in
  let ops =
    List.concat
      (List.init 20_000 (fun _ ->
           Pop
           :: List.init (Amac.Rng.int rng 3) (fun _ ->
                  Add (1 + Amac.Rng.int rng 15))))
  in
  check_agree ~span:16 (Add 0 :: ops)

(* A ring one key wide holds only the last popped key, so every other
   key goes to the overflow. *)
let test_overflow_interleaved () =
  let q = B.create ~span:1 in
  let pop () =
    let v = B.pop q in
    (B.popped_key q, v)
  in
  B.add q ~key:10 0;
  B.add q ~key:5 1;
  Alcotest.(check (pair int int)) "min of two" (5, 1) (pop ());
  Alcotest.(check int) "the other stays" 1 (B.length q);
  B.add q ~key:1 2;
  B.add q ~key:20 3;
  Alcotest.(check (list (pair int int)))
    "a key below the last pop comes first"
    [ (1, 2); (10, 0); (20, 3) ]
    (List.init 3 (fun _ -> pop ()));
  Alcotest.check_raises "drained" Not_found (fun () -> ignore (B.pop q))

(* Keys at or past [far] never fit a 16-key ring that starts at 0, and
   adding them all before any pop keeps the window there. *)
let far = 16

let prop_overflow_sorted =
  QCheck.Test.make ~name:"overflow pops sorted, multiset preserved" ~count:300
    QCheck.(list (int_range 0 1000))
    (fun offsets ->
      let q = B.create ~span:16 in
      List.iter (fun d -> B.add q ~key:(far + d) d) offsets;
      let popped_key _ =
        ignore (B.pop q);
        B.popped_key q
      in
      List.map popped_key offsets
      = List.map (( + ) far) (List.sort Int.compare offsets))

let prop_overflow_fifo =
  QCheck.Test.make ~name:"overflow is FIFO at equal keys" ~count:100
    QCheck.(list small_int)
    (fun values ->
      let q = B.create ~span:16 in
      List.iter (fun v -> B.add q ~key:far v) values;
      List.map (fun _ -> B.pop q) values = values)

let pop_pair q =
  let v = B.pop q in
  (B.popped_key q, v)

(* Draining the overflow leaves an empty queue that still knows the last
   key it popped. *)
let test_overflow_drained () =
  let q = B.create ~span:16 in
  List.iter (fun d -> B.add q ~key:(far + d) d) [ 3; 1; 2 ];
  Alcotest.(check int) "length" 3 (B.length q);
  ignore (List.init 3 (fun _ -> B.pop q));
  Alcotest.(check bool) "is_empty" true (B.is_empty q);
  Alcotest.(check int) "length" 0 (B.length q);
  Alcotest.(check int) "last popped key kept" (far + 3) (B.popped_key q);
  Alcotest.check_raises "pop raises" Not_found (fun () -> ignore (B.pop q))

let test_overflow_ordering () =
  let q = B.create ~span:16 in
  List.iter (fun d -> B.add q ~key:(far + d) d) [ 5; 1; 9; 3; 7; 2; 8 ];
  Alcotest.(check (list (pair int int)))
    "sorted, each value with its key"
    (List.map (fun d -> (far + d, d)) [ 1; 2; 3; 5; 7; 8; 9 ])
    (List.init 7 (fun _ -> pop_pair q))

(* Three entries at one key, then a smaller key: the smaller one's sift
   to the root leaves the tied three out of insertion order in the heap,
   so only the sequence numbers restore it. *)
let test_overflow_fifo_ties () =
  let q = B.create ~span:16 in
  List.iter (fun v -> B.add q ~key:(far + 4) v) [ 10; 11; 12 ];
  B.add q ~key:(far + 1) 0;
  Alcotest.(check (list int))
    "insertion order within a key" [ 0; 10; 11; 12 ]
    (List.init 4 (fun _ -> B.pop q))

(* [length] counts ring and overflow entries alike through adds and
   pops. *)
let test_overflow_length () =
  let q = B.create ~span:16 in
  B.add q ~key:3 0;
  B.add q ~key:(far + 100) 1;
  B.add q ~key:(far + 50) 2;
  Alcotest.(check int) "one ring entry, two overflow" 3 (B.length q);
  Alcotest.(check (pair int int)) "ring first" (3, 0) (pop_pair q);
  Alcotest.(check int) "two left" 2 (B.length q);
  B.add q ~key:1 3;
  Alcotest.(check int) "a key below the window joins the overflow" 3
    (B.length q);
  Alcotest.(check (list (pair int int)))
    "then by key"
    [ (1, 3); (far + 50, 2); (far + 100, 1) ]
    (List.init 3 (fun _ -> pop_pair q));
  Alcotest.(check int) "empty" 0 (B.length q)

(* 5,000 keys in descending order: every add sifts to the root, and the
   heap's arrays double many times on the way. *)
let test_overflow_grows () =
  let q = B.create ~span:16 in
  let n = 5_000 in
  for i = n downto 1 do
    B.add q ~key:(far + i) (-i)
  done;
  Alcotest.(check int) "all queued" n (B.length q);
  Alcotest.(check (list (pair int int)))
    "ascending, values intact"
    (List.init n (fun i -> (far + i + 1, -(i + 1))))
    (List.init n (fun _ -> pop_pair q))

(* An overflow drained and filled again keeps its order: insertion order
   at equal keys still holds across the refill. *)
let test_overflow_refill () =
  let q = B.create ~span:16 in
  List.iter (fun v -> B.add q ~key:(far + 7) v) [ 0; 1 ];
  Alcotest.(check (list int)) "first fill" [ 0; 1 ]
    (List.init 2 (fun _ -> B.pop q));
  (* Now the window starts at [far + 7]: keys below it, and far past it,
     both go to the overflow. *)
  List.iter (fun v -> B.add q ~key:far v) [ 2; 3; 4 ];
  B.add q ~key:(far + 1_000) 5;
  B.add q ~key:far 6;
  Alcotest.(check (list (pair int int)))
    "second fill"
    [ (far, 2); (far, 3); (far, 4); (far, 6); (far + 1_000, 5) ]
    (List.init 5 (fun _ -> pop_pair q))

(* A stable sort of the (key, value) pairs is the one pop order: with few
   distinct keys most entries tie, so a tie broken any other way, or a
   value left behind by a sift, shows. *)
let prop_overflow_stable =
  QCheck.Test.make ~name:"overflow pops a stable sort of its entries"
    ~count:300
    QCheck.(list (pair (int_range 0 5) int))
    (fun entries ->
      let q = B.create ~span:16 in
      List.iter (fun (d, v) -> B.add q ~key:(far + d) v) entries;
      List.map (fun _ -> pop_pair q) entries
      = List.stable_sort
          (fun (a, _) (b, _) -> Int.compare a b)
          (List.map (fun (d, v) -> (far + d, v)) entries))

(* A one-key ring holds only entries at the last popped key: nearly every
   add under the lockstep run goes to the overflow. *)
let prop_span1_matches_model =
  QCheck.Test.make ~name:"one-key ring pops exactly what a sorted list pops"
    ~count:300
    QCheck.(
      make ~print:(Print.list pp_op) ~shrink:Shrink.list
        Gen.(list_size (int_range 0 200) op_gen))
    (fun ops ->
      match disagreement ~span:1 ops with
      | None -> true
      | Some why -> QCheck.Test.fail_report why)

let () =
  Alcotest.run "bucket_queue"
    [
      ( "unit",
        [
          Alcotest.test_case "empty queue" `Quick test_empty;
          Alcotest.test_case "tie split across ring and overflow" `Quick
            test_split_tie;
          Alcotest.test_case "split key pops the overflow first" `Quick
            test_split_overflow_first;
          Alcotest.test_case "cell pool bounded at a fixed depth" `Quick
            test_pool_bounded;
          Alcotest.test_case "empty ring jumps to a far key" `Quick
            test_jump_to_far_key;
          Alcotest.test_case "ring wraps many times" `Quick
            test_wraps_many_times;
        ] );
      ( "overflow",
        [
          Alcotest.test_case "pop order under interleaving" `Quick
            test_overflow_interleaved;
          Alcotest.test_case "empty after draining" `Quick
            test_overflow_drained;
          Alcotest.test_case "ordering" `Quick test_overflow_ordering;
          Alcotest.test_case "fifo ties" `Quick test_overflow_fifo_ties;
          Alcotest.test_case "length across ring and overflow" `Quick
            test_overflow_length;
          Alcotest.test_case "grows past its first arrays" `Quick
            test_overflow_grows;
          Alcotest.test_case "drained and refilled" `Quick
            test_overflow_refill;
          QCheck_alcotest.to_alcotest prop_overflow_sorted;
          QCheck_alcotest.to_alcotest prop_overflow_fifo;
          QCheck_alcotest.to_alcotest prop_overflow_stable;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_matches_model;
          QCheck_alcotest.to_alcotest prop_span1_matches_model;
        ] );
    ]
