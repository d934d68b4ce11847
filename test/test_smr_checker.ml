(* Smr_checker against its reference implementation (Smr_checker_oracle,
   the list-and-Hashtbl checker it replaced): on random single-group and
   sharded views, with every violation class injectable, both must return
   the same violations in the same order. Plus direct cases for the two
   clauses no end-to-end run reaches on its own. *)

module C = Smr_checker
module O = Smr_checker_oracle

(* ---------------------------------------------------------------- *)
(* Converting between the two modules' types.                       *)
(* ---------------------------------------------------------------- *)

let to_oracle_view (v : Smr.view) : O.view =
  {
    O.v_node = v.v_node;
    v_log = v.v_log;
    v_commit = v.v_commit;
    v_applied = v.v_applied;
    v_floor = v.v_floor;
    v_snap_applied = v.v_snap_applied;
    v_configs = v.v_configs;
    v_epoch = v.v_epoch;
  }

let to_oracle_shard_view (sv : C.shard_view) : O.shard_view =
  {
    O.sv_group = sv.sv_group;
    sv_views = List.map to_oracle_view sv.sv_views;
    sv_applied_cmds = sv.sv_applied_cmds;
  }

let of_oracle_violation : O.violation -> C.violation = function
  | O.Log_disagreement { inst; node_a; value_a; node_b; value_b } ->
      C.Log_disagreement { inst; node_a; value_a; node_b; value_b }
  | O.Hole_below_commit { node; inst } -> C.Hole_below_commit { node; inst }
  | O.Duplicate_apply { node; cmd } -> C.Duplicate_apply { node; cmd }
  | O.Apply_order_mismatch { node; expected; actual } ->
      C.Apply_order_mismatch { node; expected; actual }
  | O.Unknown_command { node; inst; value } ->
      C.Unknown_command { node; inst; value }
  | O.Snapshot_divergence { node; peer; floor } ->
      C.Snapshot_divergence { node; peer; floor }
  | O.Epoch_divergence { inst; node_a; cmd_a; node_b; cmd_b } ->
      C.Epoch_divergence { inst; node_a; cmd_a; node_b; cmd_b }

let of_oracle_shard_violation : O.shard_violation -> C.shard_violation =
  function
  | O.Group_violation { group; violation } ->
      C.Group_violation { group; violation = of_oracle_violation violation }
  | O.Cross_group_duplicate { cmd; group_a; node_a; group_b; node_b } ->
      C.Cross_group_duplicate { cmd; group_a; node_a; group_b; node_b }
  | O.Batch_split { group; node; batch; expected; actual } ->
      C.Batch_split { group; node; batch; expected; actual }

let class_of : C.violation -> string = function
  | C.Log_disagreement _ -> "Log_disagreement"
  | C.Hole_below_commit _ -> "Hole_below_commit"
  | C.Duplicate_apply _ -> "Duplicate_apply"
  | C.Apply_order_mismatch _ -> "Apply_order_mismatch"
  | C.Unknown_command _ -> "Unknown_command"
  | C.Snapshot_divergence _ -> "Snapshot_divergence"
  | C.Epoch_divergence _ -> "Epoch_divergence"

let shard_class_of : C.shard_violation -> string = function
  | C.Group_violation _ -> "Group_violation"
  | C.Cross_group_duplicate _ -> "Cross_group_duplicate"
  | C.Batch_split _ -> "Batch_split"

(* ---------------------------------------------------------------- *)
(* Random cases.                                                    *)
(* ---------------------------------------------------------------- *)

type case = {
  svs : C.shard_view list;
  batches : (int * int list) list;  (** expand table: batch value -> cmds *)
  submitted : (int * int) list;  (** (group, value) pairs that were submitted *)
}

let batch_bit = 1 lsl 42

let reconfig uid mask = (1 lsl 41) lor (uid lsl 30) lor mask

let rint st lo hi = lo + Random.State.int st (hi - lo + 1)

let chance st p = Random.State.float st 1.0 < p

let pick st l = List.nth l (Random.State.int st (List.length l))

let view ~node ~log ~commit ~applied ~floor ~snap ~configs =
  {
    (Fixtures.view node) with
    Smr.v_log = log;
    v_commit = commit;
    v_applied = applied;
    v_floor = floor;
    v_snap_applied = snap;
    v_configs = configs;
    v_epoch = List.length configs;
  }

(* A consistent group: one chosen log (plain commands, batches, noops,
   reconfigurations, re-chosen duplicates) and replicas that each hold a
   committed prefix of it, some behind a snapshot. Returns the shard view,
   the batches minted and the values submitted. *)
let gen_group st ~group ~views ~len ~batching ~next_cmd ~next_seq =
  let fresh () =
    incr next_cmd;
    !next_cmd
  in
  let batches = ref [] and submitted = ref [] in
  let client = ref [] in
  let global =
    Array.init len (fun _ ->
        let r = Random.State.float st 1.0 in
        let value =
          if r < 0.08 then Smr.noop
          else if r < 0.14 then reconfig (rint st 0 3) (rint st 1 7)
          else if r < 0.2 && !client <> [] then pick st !client
          else if batching && chance st 0.5 then begin
            incr next_seq;
            let v = batch_bit lor !next_seq in
            let cmds = List.init (rint st 2 4) (fun _ -> fresh ()) in
            batches := (v, cmds) :: !batches;
            v
          end
          else fresh ()
        in
        if value <> Smr.noop then submitted := (group, value) :: !submitted;
        if value <> Smr.noop && not (Smr.is_reconfig value) then
          client := value :: !client;
        value)
  in
  let expand v =
    match List.assoc_opt v !batches with Some l -> l | None -> [ v ]
  in
  let replica node =
    let commit = if chance st 0.6 then len else rint st 0 len in
    let floor = if chance st 0.25 then rint st 0 commit else 0 in
    let retained = rint st commit len in
    let seen = Hashtbl.create 16 in
    let delivered lo hi =
      List.filter_map
        (fun inst ->
          let value = global.(inst) in
          if value = Smr.noop || Smr.is_reconfig value || Hashtbl.mem seen value
          then None
          else begin
            Hashtbl.replace seen value ();
            Some value
          end)
        (List.init (max 0 (hi - lo)) (fun i -> lo + i))
    in
    let snap = delivered 0 floor in
    let tail = delivered floor commit in
    let log =
      List.init (max 0 (retained - floor)) (fun i ->
          (floor + i, global.(floor + i)))
    in
    let configs =
      List.filter_map
        (fun inst ->
          if Smr.is_reconfig global.(inst) then Some (inst, global.(inst))
          else None)
        (List.init commit Fun.id)
    in
    ( view ~node ~log ~commit ~applied:(snap @ tail) ~floor ~snap ~configs,
      (node, List.concat_map expand tail) )
  in
  let replicas = List.init views replica in
  ( {
      C.sv_group = group;
      sv_views = List.map fst replicas;
      sv_applied_cmds = List.map snd replicas;
    },
    !batches,
    !submitted )

(* Small-domain noise: unsorted logs, repeated instances, streams that
   share nothing with the logs, a batch that expands to nothing. *)
let gen_junk st =
  let b1 = batch_bit lor 1 and b2 = batch_bit lor 2 and b3 = batch_bit lor 3 in
  let batches = [ (b1, [ 1; 2 ]); (b2, [ 3; 4; 5 ]); (b3, []) ] in
  let values = [ 0; 1; 2; 3; 4; b1; b2; b3; reconfig 1 3 ] in
  let lst n f = List.init (rint st 0 n) (fun _ -> f ()) in
  let group g =
    let views =
      List.init (rint st 1 4) (fun node ->
          view
            ~node:(if chance st 0.5 then node else rint st 0 4)
            ~log:(lst 6 (fun () -> (rint st 0 6, pick st values)))
            ~commit:(rint st 0 7) ~floor:(rint st 0 3)
            ~applied:(lst 6 (fun () -> pick st values))
            ~snap:(lst 3 (fun () -> pick st values))
            ~configs:(lst 2 (fun () -> (rint st 0 4, pick st values))))
    in
    {
      C.sv_group = g;
      sv_views = views;
      sv_applied_cmds =
        lst 4 (fun () -> (rint st 0 4, lst 8 (fun () -> rint st 1 6)));
    }
  in
  let groups = rint st 1 3 in
  {
    svs = List.init groups group;
    batches;
    submitted =
      List.concat_map
        (fun g ->
          List.filter_map
            (fun v -> if chance st 0.8 then Some (g, v) else None)
            values)
        (List.init groups Fun.id);
  }

(* List surgery for the mutations below. *)
let replace_nth l i x = List.mapi (fun j y -> if j = i then x else y) l

let remove_nth l i = List.filteri (fun j _ -> j <> i) l

let insert_nth l i x =
  List.concat (List.mapi (fun j y -> if j = i then [ x; y ] else [ y ]) l)
  @ if i >= List.length l then [ x ] else []

let swap l i j =
  let a = List.nth l i and b = List.nth l j in
  List.mapi (fun k y -> if k = i then b else if k = j then a else y) l

let client_values case =
  List.concat_map
    (fun sv ->
      List.concat_map
        (fun v ->
          List.filter_map
            (fun (_, x) ->
              if x = Smr.noop || Smr.is_reconfig x then None else Some x)
            v.Smr.v_log)
        sv.C.sv_views)
    case.svs

(* One injected fault. [kind] 0-9 aims at Log_disagreement,
   Hole_below_commit, Duplicate_apply, Apply_order_mismatch,
   Unknown_command, Snapshot_divergence, Epoch_divergence,
   Cross_group_duplicate (chosen twice, or applied twice by one replica),
   Batch_split and a batch that expands to nothing; every per-group kind
   also surfaces as a Group_violation in the sharded check. *)
let mutate st case kind =
  let sv_i = Random.State.int st (List.length case.svs) in
  let sv = List.nth case.svs sv_i in
  let with_sv sv = { case with svs = replace_nth case.svs sv_i sv } in
  let with_view f =
    match sv.C.sv_views with
    | [] -> case
    | views ->
        let i = Random.State.int st (List.length views) in
        with_sv { sv with C.sv_views = replace_nth views i (f (List.nth views i)) }
  in
  let some_client () =
    match client_values case with [] -> 1 | l -> pick st l
  in
  match kind with
  | 0 ->
      with_view (fun v ->
          match v.Smr.v_log with
          | [] -> v
          | log ->
              let i = Random.State.int st (List.length log) in
              let inst, _ = List.nth log i in
              { v with Smr.v_log = replace_nth log i (inst, some_client ()) })
  | 1 ->
      with_view (fun v ->
          if v.Smr.v_log <> [] && chance st 0.7 then
            {
              v with
              Smr.v_log = remove_nth v.Smr.v_log (Random.State.int st (List.length v.Smr.v_log));
            }
          else { v with Smr.v_commit = v.Smr.v_commit + rint st 1 3 })
  | 2 ->
      with_view (fun v ->
          match v.Smr.v_applied with
          | [] -> v
          | l ->
              let x = pick st l in
              { v with Smr.v_applied = insert_nth l (rint st 0 (List.length l)) x })
  | 3 ->
      with_view (fun v ->
          let l = v.Smr.v_applied in
          let n = List.length l in
          if n >= 2 && chance st 0.5 then
            let i = Random.State.int st (n - 1) in
            { v with Smr.v_applied = swap l i (i + 1) }
          else if n >= 1 && chance st 0.5 then
            { v with Smr.v_applied = remove_nth l (Random.State.int st n) }
          else { v with Smr.v_applied = l @ [ some_client () ] })
  | 4 ->
      let unknown = 1_000_000 + Random.State.int st 1000 in
      with_view (fun v ->
          match Random.State.int st 3 with
          | 0 when v.Smr.v_log <> [] ->
              let i = Random.State.int st (List.length v.Smr.v_log) in
              let inst, _ = List.nth v.Smr.v_log i in
              { v with Smr.v_log = replace_nth v.Smr.v_log i (inst, unknown) }
          | 1 -> { v with Smr.v_snap_applied = unknown :: v.Smr.v_snap_applied }
          | _ ->
              let cmd = if chance st 0.5 then unknown else reconfig 9 1 in
              { v with Smr.v_configs = v.Smr.v_configs @ [ (rint st 0 5, cmd) ] })
  | 5 ->
      with_view (fun v ->
          let floor = if v.Smr.v_floor > 0 then v.Smr.v_floor else rint st 1 3 in
          let snap =
            match v.Smr.v_snap_applied with
            | _ :: _ :: _ as l when chance st 0.5 -> swap l 0 1
            | [] -> [ some_client () ]
            | l ->
                replace_nth l (Random.State.int st (List.length l)) (some_client ())
          in
          { v with Smr.v_floor = floor; v_snap_applied = snap })
  | 6 ->
      with_view (fun v ->
          match v.Smr.v_configs with
          | [] -> { v with Smr.v_configs = [ (rint st 0 3, reconfig 0 (rint st 1 7)) ] }
          | l ->
              let i = Random.State.int st (List.length l) in
              let inst, cmd = List.nth l i in
              { v with Smr.v_configs = replace_nth l i (inst, cmd lxor 1) })
  | 7 ->
      if chance st 0.5 then
        (* Another group's command chosen here too: as a plain value, or
           hidden inside one of this group's batches. *)
        let other = some_client () in
        let other =
          match List.assoc_opt other case.batches with
          | Some (c :: _) -> c
          | _ -> other
        in
        let chosen = Hashtbl.create 64 in
        List.iter
          (fun v -> List.iter (fun (_, x) -> Hashtbl.replace chosen x ()) v.Smr.v_log)
          sv.C.sv_views;
        match
          List.filter
            (fun (b, cmds) -> cmds <> [] && Hashtbl.mem chosen b)
            case.batches
        with
        | (b, cmds) :: _ when chance st 0.5 ->
            let cmds = replace_nth cmds (List.length cmds - 1) other in
            {
              case with
              batches =
                List.map
                  (fun (b', cmds') -> if b' = b then (b', cmds) else (b', cmds'))
                  case.batches;
            }
        | _ ->
            with_view (fun v ->
                { v with Smr.v_log = v.Smr.v_log @ [ (100_000, other) ] })
      else
        (* One replica applies a command twice in its flattened stream. *)
        let streams = sv.C.sv_applied_cmds in
        if streams = [] then case
        else
          let i = Random.State.int st (List.length streams) in
          let node, flat = List.nth streams i in
          let flat =
            match flat with
            | [] -> [ some_client (); some_client () ]
            | l -> insert_nth l (rint st 0 (List.length l)) (pick st l)
          in
          with_sv { sv with C.sv_applied_cmds = replace_nth streams i (node, flat) }
  | 8 ->
      let streams = sv.C.sv_applied_cmds in
      if streams = [] then case
      else
        let i = Random.State.int st (List.length streams) in
        let node, flat = List.nth streams i in
        let n = List.length flat in
        let flat =
          if n >= 2 && chance st 0.5 then
            let j = Random.State.int st (n - 1) in
            swap flat j (j + 1)
          else if n >= 1 then remove_nth flat (Random.State.int st n)
          else flat
        in
        with_sv { sv with C.sv_applied_cmds = replace_nth streams i (node, flat) }
  | _ -> (
      match case.batches with
      | [] -> case
      | l ->
          let b, _ = pick st l in
          { case with batches = (b, []) :: List.remove_assoc b l })

let gen_case : case QCheck.Gen.t =
 fun st ->
  if chance st 0.2 then gen_junk st
  else begin
    (* One case in eight is large: more views, and longer streams, than
       the checker's table starts with, so it grows and is cleared at
       every size. *)
    let large = chance st 0.125 in
    let groups = if large then rint st 1 2 else rint st 1 4 in
    let next_cmd = ref 0 and next_seq = ref 0 in
    let batching = chance st 0.7 in
    let parts =
      List.init groups (fun group ->
          let views = if large then rint st 65 72 else rint st 1 5 in
          let len = if large then rint st 40 120 else rint st 0 25 in
          gen_group st ~group ~views ~len ~batching ~next_cmd ~next_seq)
    in
    let case =
      {
        svs = List.map (fun (sv, _, _) -> sv) parts;
        batches = List.concat_map (fun (_, b, _) -> b) parts;
        submitted = List.concat_map (fun (_, _, s) -> s) parts;
      }
    in
    let faults = if chance st 0.3 then 0 else rint st 1 3 in
    let rec go case k =
      if k = 0 then case else go (mutate st case (Random.State.int st 10)) (k - 1)
    in
    go case faults
  end

let print_case case =
  let ints l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]" in
  let pairs l =
    "["
    ^ String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d,%d" a b) l)
    ^ "]"
  in
  let print_view (v : Smr.view) =
    Printf.sprintf
      "    node %d commit %d floor %d epoch %d\n      log %s\n      applied %s\n      snap %s configs %s"
      v.v_node v.v_commit v.v_floor v.v_epoch (pairs v.v_log) (ints v.v_applied)
      (ints v.v_snap_applied) (pairs v.v_configs)
  in
  String.concat "\n"
    (List.map
       (fun (sv : C.shard_view) ->
         Printf.sprintf "group %d\n%s\n  streams %s" sv.sv_group
           (String.concat "\n" (List.map print_view sv.sv_views))
           (String.concat " "
              (List.map
                 (fun (n, l) -> Printf.sprintf "%d:%s" n (ints l))
                 sv.sv_applied_cmds)))
       case.svs
    @ [
        "batches "
        ^ String.concat " "
            (List.map (fun (b, l) -> Printf.sprintf "%d->%s" b (ints l)) case.batches);
      ])

(* Both checkers' verdicts on one case: per group (check_views) and
   sharded (check_shard_views). *)
let verdicts case =
  let sub = Hashtbl.create 64 in
  List.iter (fun gv -> Hashtbl.replace sub gv ()) case.submitted;
  let submitted g v = Hashtbl.mem sub (g, v) in
  let table = Hashtbl.create 64 in
  List.iter (fun (b, cmds) -> Hashtbl.replace table b cmds) case.batches;
  let expand = Hashtbl.find_opt table in
  let groups =
    List.map
      (fun (sv : C.shard_view) ->
        ( C.check_views ~submitted:(submitted sv.sv_group) sv.sv_views,
          List.map of_oracle_violation
            (O.check_views ~submitted:(submitted sv.sv_group)
               (List.map to_oracle_view sv.sv_views)) ))
      case.svs
  in
  let sharded =
    ( C.check_shard_views ~submitted ~expand case.svs,
      List.map of_oracle_shard_violation
        (O.check_shard_views ~submitted ~expand
           (List.map to_oracle_shard_view case.svs)) )
  in
  (groups, sharded)

(* The first position where [got] and [want] differ, rendered. *)
let first_difference render got want =
  let rec go i = function
    | g :: gs, w :: ws -> if g = w then go (i + 1) (gs, ws) else Some (i, render g, render w)
    | g :: _, [] -> Some (i, render g, "(none)")
    | [], w :: _ -> Some (i, "(none)", render w)
    | [], [] -> None
  in
  Option.map
    (fun (i, g, w) -> Printf.sprintf "violation %d: got %s, oracle %s" i g w)
    (go 0 (got, want))

let disagreement case =
  let groups, (shard_got, shard_want) = verdicts case in
  let per_group =
    List.find_map
      (fun (got, want) -> first_difference C.to_string got want)
      groups
  in
  match per_group with
  | Some why -> Some ("check_views: " ^ why)
  | None ->
      Option.map
        (fun why -> "check_shard_views: " ^ why)
        (first_difference C.shard_to_string shard_got shard_want)

let prop_matches_oracle =
  QCheck.Test.make ~name:"same violations, same order, as the oracle"
    ~count:1000
    (QCheck.make ~print:print_case gen_case)
    (fun case ->
      match disagreement case with
      | None -> true
      | Some why -> QCheck.Test.fail_report why)

(* The generator reaches every violation class, and cases larger than the
   table's starting size (64 slots, so 33 entries force a growth). *)
let test_generator_coverage () =
  let st = Random.State.make [| 29 |] in
  let seen = Hashtbl.create 16 and largest = ref 0 in
  for _ = 1 to 1000 do
    let case = gen_case st in
    List.iter
      (fun (sv : C.shard_view) ->
        largest := max !largest (List.length sv.sv_views);
        List.iter
          (fun (_, l) -> largest := max !largest (List.length l))
          sv.sv_applied_cmds)
      case.svs;
    let _, (_, want) = verdicts case in
    List.iter
      (fun v ->
        Hashtbl.replace seen (shard_class_of v) ();
        match v with
        | C.Group_violation { violation; _ } ->
            Hashtbl.replace seen (class_of violation) ()
        | _ -> ())
      want
  done;
  List.iter
    (fun cls ->
      Alcotest.(check bool) (cls ^ " is generated") true (Hashtbl.mem seen cls))
    [
      "Log_disagreement";
      "Hole_below_commit";
      "Duplicate_apply";
      "Apply_order_mismatch";
      "Unknown_command";
      "Snapshot_divergence";
      "Epoch_divergence";
      "Cross_group_duplicate";
      "Batch_split";
      "Group_violation";
    ];
  Alcotest.(check bool)
    (Printf.sprintf "views or streams outgrow the table (largest %d)" !largest)
    true (!largest > 64)

(* ---------------------------------------------------------------- *)
(* Pinned payloads.                                                 *)
(* ---------------------------------------------------------------- *)

let violations = Alcotest.testable C.pp_violation ( = )

let all _ = true

let test_apply_order_mismatch () =
  (* Node 3 committed 10, 11, 12 at instances 0-2 but applied 11 first. *)
  Alcotest.(check (list violations))
    "swapped applies"
    [ C.Apply_order_mismatch { node = 3; expected = [ 10; 11; 12 ]; actual = [ 11; 10; 12 ] } ]
    (C.check_views ~submitted:all
       [
         view ~node:3
           ~log:[ (0, 10); (1, 11); (2, 12) ]
           ~commit:3 ~applied:[ 11; 10; 12 ] ~floor:0 ~snap:[] ~configs:[];
       ]);
  (* Behind a snapshot at floor 1 (which packaged 10), the expected stream
     drops the noop at 1, the reconfiguration at 2, the re-chosen 10 at 4
     and the uncommitted 14 at 6. Node 5 stopped one command short. *)
  let rc = reconfig 0 3 in
  Alcotest.(check (list violations))
    "truncated applies behind a snapshot"
    [ C.Apply_order_mismatch { node = 5; expected = [ 10; 11; 12 ]; actual = [ 10; 11 ] } ]
    (C.check_views ~submitted:all
       [
         view ~node:5
           ~log:[ (1, Smr.noop); (2, rc); (3, 11); (4, 10); (5, 12); (6, 14) ]
           ~commit:6 ~applied:[ 10; 11 ] ~floor:1 ~snap:[ 10 ]
           ~configs:[ (2, rc) ];
       ])

let test_log_disagreement () =
  (* Node 1 is the first to choose at each instance, so it is node_a of
     both disagreements at instance 1; instance 0 agrees. *)
  Alcotest.(check (list violations))
    "two disagreements with the first chooser"
    [
      C.Log_disagreement { inst = 1; node_a = 1; value_a = 6; node_b = 4; value_b = 7 };
      C.Log_disagreement { inst = 1; node_a = 1; value_a = 6; node_b = 2; value_b = 8 };
    ]
    (C.check_views ~submitted:all
       [
         view ~node:1 ~log:[ (0, 5); (1, 6) ] ~commit:2 ~applied:[ 5; 6 ] ~floor:0
           ~snap:[] ~configs:[];
         view ~node:4 ~log:[ (0, 5); (1, 7) ] ~commit:2 ~applied:[ 5; 7 ] ~floor:0
           ~snap:[] ~configs:[];
         view ~node:2 ~log:[ (1, 8) ] ~commit:0 ~applied:[] ~floor:0 ~snap:[]
           ~configs:[];
       ])

let () =
  Alcotest.run "smr_checker"
    [
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_matches_oracle;
          Alcotest.test_case "generator reaches every class" `Quick
            test_generator_coverage;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "apply order mismatch payload" `Quick
            test_apply_order_mismatch;
          Alcotest.test_case "log disagreement payload" `Quick
            test_log_disagreement;
        ] );
    ]
