(* Consensus.Tree against the list implementation it replaced.

   [Model] is the tree-building service exactly as Wpaxos and Smr kept it
   before it moved behind one module: two hash tables and a list queue
   rewritten on every update. Random sequences of improve / readvertise /
   pop, with the preferred root changing along the way, must give the same
   results, the same pending queue and the same parents after every step;
   the fingerprint must equal the one the old list state folded; and a
   clone must share nothing mutable with its original. *)

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

let () =
  Alcotest.run "tree"
    [
      ( "tree",
        [
          Alcotest.test_case "create" `Quick test_create;
          QCheck_alcotest.to_alcotest prop_matches_model;
          QCheck_alcotest.to_alcotest prop_clone_independent;
        ] );
    ]
