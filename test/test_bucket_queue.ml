(* The engine's bucket queue against the binary heap it replaced: any
   interleaving of adds and pops must pop the same (key, value) sequence,
   ties in insertion order, whether a key sits in the ring, in the
   overflow, or is split between the two. Plus the ring's cell pool: it
   stops growing at a steady depth. *)

module B = Amac.Bucket_queue
module P = Amac.Pqueue

type op = Add of int | Pop

(* Replay [ops] on both queues in lockstep; [Add d] adds the key [d] past
   the last popped key (0 before the first pop), valued by its insertion
   rank. Returns the first disagreement, if any. *)
let disagreement ~span ops =
  let b = B.create ~span and p = P.create () in
  let last = ref 0 and rank = ref 0 in
  let step = function
    | Add d ->
        let key = !last + d in
        B.add b ~key !rank;
        P.add p ~key !rank;
        incr rank;
        None
    | Pop -> (
        match P.pop p with
        | exception Not_found -> (
            match B.pop b with
            | exception Not_found -> None
            | _ -> Some "bucket queue popped from an empty queue")
        | expected -> (
            last := fst expected;
            match B.pop b with
            | exception Not_found -> Some "bucket queue empty before the heap"
            | v when (B.popped_key b, v) = expected -> None
            | v ->
                Some
                  (Printf.sprintf "popped (%d,%d), heap popped (%d,%d)"
                     (B.popped_key b) v (fst expected) (snd expected))))
  in
  let rec go = function
    | [] ->
        if B.length b <> P.length p then Some "lengths differ at the end"
        else None
    | op :: rest -> (
        match step op with
        | Some _ as failure -> failure
        | None ->
            if B.length b <> P.length p then Some "lengths differ"
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

let prop_matches_heap =
  QCheck.Test.make ~name:"pops exactly what Pqueue pops" ~count:500
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
      ("differential", [ QCheck_alcotest.to_alcotest prop_matches_heap ]);
    ]
