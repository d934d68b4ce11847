(* Consensus.Tree against the list implementation it replaced.

   [Model] is the tree-building service exactly as Wpaxos and Smr kept it
   before it moved behind one module: two hash tables and a list queue
   rewritten on every update. Random sequences of improve / readvertise /
   pop, with the preferred root changing along the way, must give the same
   results, the same pending queue and the same parents after every step;
   the fingerprint must equal the one the old list state folded; and a
   clone must share nothing mutable with its original. The last cases
   pin the packed layout: stamps renumbered before they leave their
   field, parents kept as indices into a per-tree sender table, hops
   that do not fit refused, and the bytes per root. *)

module Tree = Consensus.Tree
module F = Amac.Fingerprint

module Model = struct
  type t = {
    dist : (int, int) Hashtbl.t;
    parent : (int, int) Hashtbl.t;
    mutable q : (int * int) list;  (* (root, hops to advertise) *)
  }

  let create ~me =
    let t =
      { dist = Hashtbl.create 16; parent = Hashtbl.create 16; q = [ (me, 1) ] }
    in
    Hashtbl.replace t.dist me 0;
    Hashtbl.replace t.parent me me;
    t

  let improve t ~root ~hops ~sender =
    let current =
      Option.value ~default:max_int (Hashtbl.find_opt t.dist root)
    in
    if hops < current then begin
      Hashtbl.replace t.dist root hops;
      Hashtbl.replace t.parent root sender;
      t.q <- List.filter (fun (r, _) -> r <> root) t.q @ [ (root, hops + 1) ];
      true
    end
    else false

  let readvertise t ~root =
    match Hashtbl.find_opt t.dist root with
    | Some d ->
        t.q <- List.filter (fun (r, _) -> r <> root) t.q @ [ (root, d + 1) ]
    | None -> ()

  let pop t ~prefer =
    match t.q with
    | [] -> None
    | entries ->
        let chosen =
          match prefer with
          | Some p -> (
              match List.find_opt (fun (root, _) -> root = p) entries with
              | Some entry -> entry
              | None -> List.hd entries)
          | None -> List.hd entries
        in
        t.q <- List.filter (fun e -> e <> chosen) t.q;
        Some chosen

  let fingerprint t acc =
    let sorted tbl =
      List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) tbl [])
    in
    let pair (a, b) acc = acc |> F.int a |> F.int b in
    acc |> F.list pair (sorted t.dist) |> F.list pair (sorted t.parent)
    |> F.list pair t.q

  let copy t =
    { dist = Hashtbl.copy t.dist; parent = Hashtbl.copy t.parent; q = t.q }
end

(* Ids are not dense: negatives, gaps and values far beyond any array. *)
let roots =
  Array.init 40 (fun i ->
      if i mod 5 = 0 then (i + 1) lsl 36 else (i * 7919) - 100_000)

let me = roots.(1)

type op =
  | Improve of { root : int; hops : int; sender : int }
  | Readvertise of int
  | Pop
  | Prefer of int option

let pp_op = function
  | Improve { root; hops; sender } ->
      Printf.sprintf "improve(%d,%d,%d)" root hops sender
  | Readvertise root -> Printf.sprintf "readvertise(%d)" root
  | Pop -> "pop"
  | Prefer None -> "prefer(-)"
  | Prefer (Some root) -> Printf.sprintf "prefer(%d)" root

let gen_ops =
  let open QCheck.Gen in
  let root = map (Array.get roots) (int_range 0 (Array.length roots - 1)) in
  let op =
    frequency
      [
        ( 5,
          map3
            (fun root hops sender -> Improve { root; hops; sender })
            root (int_range 0 30) root );
        (1, map (fun root -> Readvertise root) root);
        (3, return Pop);
        (1, map (fun root -> Prefer root) (opt root));
      ]
  in
  list_size (int_range 0 400) op

let arb_ops =
  QCheck.make gen_ops ~print:(fun ops ->
      String.concat "; " (List.map pp_op ops))

let pp_pending l =
  String.concat "," (List.map (fun (r, h) -> Printf.sprintf "(%d,%d)" r h) l)

let prop_matches_model =
  QCheck.Test.make ~name:"tree matches the list model step by step" ~count:500
    arb_ops (fun ops ->
      let t = Tree.create ~me and m = Model.create ~me in
      let prefer = ref None in
      List.iteri
        (fun step op ->
          let fail what =
            QCheck.Test.fail_reportf "step %d (%s): %s differs" step (pp_op op)
              what
          in
          (match op with
          | Improve { root; hops; sender } ->
              if
                Tree.improve t ~root ~hops ~sender
                <> Model.improve m ~root ~hops ~sender
              then fail "improve result"
          | Readvertise root ->
              Tree.readvertise t ~root;
              Model.readvertise m ~root
          | Pop ->
              if Tree.pop t ~prefer:!prefer <> Model.pop m ~prefer:!prefer then
                fail "popped entry"
          | Prefer p -> prefer := p);
          if Tree.pending t <> m.Model.q then
            fail
              (Printf.sprintf "pending [%s] vs [%s]"
                 (pp_pending (Tree.pending t))
                 (pp_pending m.Model.q));
          Array.iter
            (fun root ->
              if Tree.parent t root <> Hashtbl.find_opt m.Model.parent root then
                fail (Printf.sprintf "parent of %d" root))
            roots;
          if Tree.fingerprint t F.empty <> Model.fingerprint m F.empty then
            fail "fingerprint")
        ops;
      true)

let prop_clone_independent =
  QCheck.Test.make ~name:"a clone shares nothing mutable with its original"
    ~count:300 arb_ops (fun ops ->
      let t = Tree.create ~me in
      List.iter
        (function
          | Improve { root; hops; sender } ->
              ignore (Tree.improve t ~root ~hops ~sender)
          | Readvertise root -> Tree.readvertise t ~root
          | Pop -> ignore (Tree.pop t ~prefer:None)
          | Prefer _ -> ())
        ops;
      let pending = Tree.pending t and fp = Tree.fingerprint t F.empty in
      let parents = Array.map (Tree.parent t) roots in
      let c = Tree.clone t in
      if Tree.fingerprint c F.empty <> fp then
        QCheck.Test.fail_report "clone fingerprints differently";
      (* Drain the clone and move every route in it. *)
      while Tree.pop c ~prefer:(Some me) <> None do
        ()
      done;
      Array.iter
        (fun root -> ignore (Tree.improve c ~root ~hops:(-1) ~sender:root))
        roots;
      Tree.pending t = pending
      && Tree.fingerprint t F.empty = fp
      && Array.map (Tree.parent t) roots = parents
      && Tree.pending c <> pending)

let test_create () =
  let t = Tree.create ~me:7 in
  Alcotest.(check (list (pair int int)))
    "own search pending" [ (7, 1) ] (Tree.pending t);
  Alcotest.(check (option int)) "own parent" (Some 7) (Tree.parent t 7);
  Alcotest.(check (option int)) "unknown root" None (Tree.parent t 8);
  Alcotest.(check (option (pair int int)))
    "pop" (Some (7, 1))
    (Tree.pop t ~prefer:(Some 8));
  Alcotest.(check (option (pair int int)))
    "then empty" None
    (Tree.pop t ~prefer:None)

(* [t] and [m] agree on the queue, on every root's parent and on the
   fingerprint. *)
let check_same what t m rs =
  Alcotest.(check (list (pair int int)))
    (what ^ ": pending") m.Model.q (Tree.pending t);
  Array.iter
    (fun root ->
      Alcotest.(check (option int))
        (Printf.sprintf "%s: parent of %d" what root)
        (Hashtbl.find_opt m.Model.parent root)
        (Tree.parent t root))
    rs;
  Alcotest.(check bool)
    (what ^ ": fingerprint") true
    (Tree.fingerprint t F.empty = Model.fingerprint m F.empty)

let improve_both t m ~root ~hops ~sender =
  Alcotest.(check bool)
    (Printf.sprintf "improve(%d,%d,%d)" root hops sender)
    (Model.improve m ~root ~hops ~sender)
    (Tree.improve t ~root ~hops ~sender)

(* Queue stamps live in a 21-bit field: stamps 1 .. 2^21 - 1. *)
let stamp_bound = (1 lsl 21) - 1

(* A queue that never empties and never fills: each cycle re-advertises
   the root popped last and pops the oldest, so the ring keeps six
   entries while every cycle takes a fresh stamp. Past the bound the
   stamps must have been renumbered, not wrapped into the parent field. *)
let test_stamps_renumbered () =
  let t = Tree.create ~me and m = Model.create ~me in
  let rs = Array.sub roots 0 6 in
  Array.iteri
    (fun i root ->
      if root <> me then improve_both t m ~root ~hops:i ~sender:roots.(i + 6))
    rs;
  let last = ref me in
  for cycle = 1 to stamp_bound + 100_001 do
    if cycle > 1 then begin
      Tree.readvertise t ~root:!last;
      Model.readvertise m ~root:!last
    end;
    let popped = Tree.pop t ~prefer:None in
    if popped <> Model.pop m ~prefer:None then
      Alcotest.failf "cycle %d: popped entry differs" cycle;
    (match popped with Some (root, _) -> last := root | None -> ());
    if cycle land 0xFFFF = 0 then
      check_same (Printf.sprintf "cycle %d" cycle) t m rs
  done;
  check_same "end" t m rs

(* 37 distinct parents, more than the sender table holds before it first
   grows, and short of its next growth, so the clone below would still
   share its arrays if [clone] did not copy them. The clone and its
   original then each take parents of their own. *)
let test_many_senders () =
  let sender i =
    if i mod 2 = 0 then -(i * 1_000_003) - 1 else (i lsl 40) + 17
  in
  let rs = Array.init 60 (fun i -> (i * 7919) - 250_000) in
  let t = Tree.create ~me and m = Model.create ~me in
  Array.iteri
    (fun i root ->
      improve_both t m ~root
        ~hops:(40 - (i mod 37))
        ~sender:(sender (i mod 37)))
    rs;
  (* Shorter routes through parents already in the table. *)
  Array.iteri
    (fun i root ->
      if i mod 3 = 0 then
        improve_both t m ~root ~hops:0 ~sender:(sender ((i + 5) mod 37)))
    rs;
  check_same "before the clone" t m rs;
  let c = Tree.clone t and mc = Model.copy m in
  for k = 0 to 9 do
    improve_both t m ~root:rs.(k) ~hops:(-1 - k) ~sender:(sender (100 + k));
    improve_both c mc ~root:rs.(k) ~hops:(-1 - k) ~sender:(sender (200 + k))
  done;
  check_same "original" t m rs;
  check_same "clone" c mc rs

let test_hops_bounds () =
  let t = Tree.create ~me:0 in
  let refused hops =
    Alcotest.check_raises (Printf.sprintf "hops %d" hops)
      (Invalid_argument "Tree.improve: hops outside (-2^20, 2^20)")
      (fun () -> ignore (Tree.improve t ~root:1 ~hops ~sender:2))
  in
  List.iter refused [ 1 lsl 20; -(1 lsl 20); max_int; min_int ];
  Alcotest.(check (option int)) "nothing stored" None (Tree.parent t 1);
  Alcotest.(check (list (pair int int)))
    "nothing queued" [ (0, 1) ] (Tree.pending t);
  Alcotest.(check bool)
    "largest fits" true
    (Tree.improve t ~root:1 ~hops:((1 lsl 20) - 1) ~sender:2);
  Alcotest.(check bool)
    "smallest fits" true
    (Tree.improve t ~root:3 ~hops:(1 - (1 lsl 20)) ~sender:4);
  (* A known root refuses too, and keeps its route. *)
  Alcotest.check_raises "known root"
    (Invalid_argument "Tree.improve: hops outside (-2^20, 2^20)")
    (fun () -> ignore (Tree.improve t ~root:3 ~hops:(-(1 lsl 20)) ~sender:5));
  Alcotest.(check (list (pair int int)))
    "both queued"
    [ (0, 1); (1, 1 lsl 20); (3, 2 - (1 lsl 20)) ]
    (Tree.pending t);
  Alcotest.(check (list (option int)))
    "parents" [ Some 2; Some 4 ]
    [ Tree.parent t 1; Tree.parent t 3 ]

(* Words reachable from a tree holding 1,000 roots heard through four
   neighbours. The four-int records needed 5,502 words with each search
   popped as it arrived and 7,534 with all of them still queued. *)
let test_memory () =
  let build ~pop =
    let t = Tree.create ~me:0 in
    for root = 1 to 999 do
      ignore
        (Tree.improve t ~root ~hops:(root mod 64) ~sender:(1 + (root mod 4)));
      if pop then ignore (Tree.pop t ~prefer:None)
    done;
    Obj.reachable_words (Obj.repr t)
  in
  let within what words four_int =
    if 100 * words > 55 * four_int then
      Alcotest.failf "%s: %d words, more than 55%% of %d" what words four_int
  in
  within "popped" (build ~pop:true) 5_502;
  within "queued" (build ~pop:false) 7_534

let () =
  Alcotest.run "tree"
    [
      ( "tree",
        [
          Alcotest.test_case "create" `Quick test_create;
          QCheck_alcotest.to_alcotest prop_matches_model;
          QCheck_alcotest.to_alcotest prop_clone_independent;
        ] );
      ( "layout",
        [
          Alcotest.test_case "stamps renumbered past the bound" `Quick
            test_stamps_renumbered;
          Alcotest.test_case "many sparse parents, cloned" `Quick
            test_many_senders;
          Alcotest.test_case "hops outside the field" `Quick test_hops_bounds;
          Alcotest.test_case "words per 1000 roots" `Quick test_memory;
        ] );
    ]
