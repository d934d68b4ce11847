type violation =
  | Log_disagreement of {
      inst : int;
      node_a : int;
      value_a : int;
      node_b : int;
      value_b : int;
    }
  | Hole_below_commit of { node : int; inst : int }
  | Duplicate_apply of { node : int; cmd : int }
  | Apply_order_mismatch of {
      node : int;
      expected : int list;
      actual : int list;
    }
  | Unknown_command of { node : int; inst : int; value : int }
  | Snapshot_divergence of { node : int; peer : int; floor : int }
  | Epoch_divergence of {
      inst : int;
      node_a : int;
      cmd_a : int;
      node_b : int;
      cmd_b : int;
    }

let pp_violation fmt = function
  | Log_disagreement { inst; node_a; value_a; node_b; value_b } ->
      Format.fprintf fmt
        "log disagreement at instance %d: node %d chose %d, node %d chose %d"
        inst node_a value_a node_b value_b
  | Hole_below_commit { node; inst } ->
      Format.fprintf fmt "node %d: instance %d is below commit index yet unchosen"
        node inst
  | Duplicate_apply { node; cmd } ->
      Format.fprintf fmt "node %d applied command %d more than once" node cmd
  | Apply_order_mismatch { node; expected; actual } ->
      let render l = String.concat "," (List.map string_of_int l) in
      Format.fprintf fmt
        "node %d applied [%s] but its committed prefix dictates [%s]" node
        (render actual) (render expected)
  | Unknown_command { node; inst; value } ->
      if inst < 0 then
        Format.fprintf fmt
          "node %d holds never-submitted command %d in its snapshot" node value
      else
        Format.fprintf fmt
          "node %d chose never-submitted command %d at instance %d" node value
          inst
  | Snapshot_divergence { node; peer; floor } ->
      Format.fprintf fmt
        "node %d's snapshot at floor %d is not a prefix of node %d's applied \
         sequence"
        node floor peer
  | Epoch_divergence { inst; node_a; cmd_a; node_b; cmd_b } ->
      Format.fprintf fmt
        "configuration disagreement at instance %d: node %d committed \
         reconfig %d, node %d committed reconfig %d"
        inst node_a cmd_a node_b cmd_b

let to_string v = Format.asprintf "%a" pp_violation v

(* A flat open-addressing table from int keys to two int payloads, one per
   check call and reused across views and clauses. Slot [i] is the four
   words [4i .. 4i+3] of [slots]: generation stamp, key, payload [a],
   payload [b]. A slot is live iff its stamp is [gen], so [clear] is one
   increment. Linear probing, no deletion; the table doubles past half
   full. *)
module Tbl = struct
  type t = {
    mutable slots : int array;
    mutable mask : int;
    mutable gen : int;
    mutable live : int;
  }

  (* A table that takes [n] entries before it first grows. *)
  let create n =
    let rec size c = if 2 * n < c then c else size (2 * c) in
    let c = size 64 in
    { slots = Array.make (4 * c) 0; mask = c - 1; gen = 1; live = 0 }

  let clear t =
    t.gen <- t.gen + 1;
    t.live <- 0

  let[@inline] home k mask =
    let h = k * 0x165667b19e3779f9 in
    (h lxor (h lsr 32)) land mask

  (* The slot holding [k], or the free slot where it would go. *)
  let probe slots mask gen k =
    let i = ref (home k mask) in
    while slots.(4 * !i) = gen && slots.((4 * !i) + 1) <> k do
      i := (!i + 1) land mask
    done;
    !i

  let grow t =
    let old = t.slots and gen = t.gen in
    let mask = (2 * (t.mask + 1)) - 1 in
    let slots = Array.make (4 * (mask + 1)) 0 in
    for j = 0 to t.mask do
      let b = 4 * j in
      if old.(b) = gen then begin
        let i = 4 * probe slots mask gen old.(b + 1) in
        slots.(i) <- gen;
        slots.(i + 1) <- old.(b + 1);
        slots.(i + 2) <- old.(b + 2);
        slots.(i + 3) <- old.(b + 3)
      end
    done;
    t.slots <- slots;
    t.mask <- mask

  (* The live slot holding [k], or -1. *)
  let find t k =
    let i = probe t.slots t.mask t.gen k in
    if t.slots.(4 * i) = t.gen then i else -1

  let mem t k = find t k >= 0

  (* [claim t k a b] is the live slot already holding [k] (left as it
     was), or -1 after inserting [k] with payloads [a], [b]. *)
  let claim t k a b =
    let i = probe t.slots t.mask t.gen k in
    let s = t.slots in
    if s.(4 * i) = t.gen then i
    else begin
      s.(4 * i) <- t.gen;
      s.((4 * i) + 1) <- k;
      s.((4 * i) + 2) <- a;
      s.((4 * i) + 3) <- b;
      t.live <- t.live + 1;
      if 2 * t.live > t.mask then grow t;
      -1
    end

  let a t i = t.slots.((4 * i) + 2)

  let b t i = t.slots.((4 * i) + 3)
end

(* Whether a retained log entry reaches the apply stream: committed, above
   the compaction floor, a client command, and not re-chosen after an
   earlier instance (or the snapshot) already delivered it. [seen] holds
   the commands delivered so far; a fresh command is claimed in it. *)
let delivers seen (v : Smr.view) inst value =
  inst >= v.v_floor && inst < v.v_commit && value <> Smr.noop
  && (not (Smr.is_reconfig value))
  && Tbl.claim seen value 0 0 < 0

(* The expected apply sequence from a node's own retained log: committed
   prefix above the compaction floor, in instance order, noops and
   reconfiguration commands dropped, duplicate chosen commands applied only
   at their first instance — all appended after the snapshot-inherited
   prefix (whose commands must not be applied again). Built only for an
   {!Apply_order_mismatch} payload; {!applies_in_order} is the check. *)
let expected_applies seen (v : Smr.view) =
  Tbl.clear seen;
  List.iter (fun cmd -> ignore (Tbl.claim seen cmd 0 0)) v.v_snap_applied;
  v.v_snap_applied
  @ List.filter_map
      (fun (inst, value) ->
        if delivers seen v inst value then Some value else None)
      v.v_log

(* [v_applied = expected_applies seen v], walked in place. *)
let applies_in_order seen (v : Smr.view) =
  Tbl.clear seen;
  let rec snap prefix applied =
    match (prefix, applied) with
    | [], _ -> tail v.v_log applied
    | cmd :: prefix, a :: applied when Int.equal cmd a ->
        ignore (Tbl.claim seen cmd 0 0);
        snap prefix applied
    | _ -> false
  and tail log applied =
    match log with
    | [] -> ( match applied with [] -> true | _ :: _ -> false)
    | (inst, value) :: log -> (
        if not (delivers seen v inst value) then tail log applied
        else
          match applied with
          | a :: applied when Int.equal value a -> tail log applied
          | _ -> false)
  in
  snap v.v_snap_applied v.v_applied

let rec is_prefix prefix l =
  match (prefix, l) with
  | [], _ -> true
  | _, [] -> false
  | a :: pa, b :: pb -> Int.equal a b && is_prefix pa pb

let check_views_in tbl ~submitted views =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  (* Prefix agreement: any two replicas that both chose an instance agree
     on its value. (Logs of different lengths are fine — a straggler's log
     is a sub-log, not a violation.) [tbl]: instance -> first (node,
     value). *)
  Tbl.clear tbl;
  List.iter
    (fun (v : Smr.view) ->
      List.iter
        (fun (inst, value) ->
          let i = Tbl.claim tbl inst v.v_node value in
          if i >= 0 && Tbl.b tbl i <> value then
            add
              (Log_disagreement
                 {
                   inst;
                   node_a = Tbl.a tbl i;
                   value_a = Tbl.b tbl i;
                   node_b = v.v_node;
                   value_b = value;
                 }))
        v.v_log)
    views;
  (* Configuration agreement, including configs inherited through
     snapshots after the log entries were truncated: any two replicas that
     committed a reconfiguration at an instance agree on which one. A
     divergence here means replicas crossed into different epochs — quorum
     rules silently forked. *)
  Tbl.clear tbl;
  List.iter
    (fun (v : Smr.view) ->
      List.iter
        (fun (inst, cmd) ->
          let i = Tbl.claim tbl inst v.v_node cmd in
          if i >= 0 && Tbl.b tbl i <> cmd then
            add
              (Epoch_divergence
                 {
                   inst;
                   node_a = Tbl.a tbl i;
                   cmd_a = Tbl.b tbl i;
                   node_b = v.v_node;
                   cmd_b = cmd;
                 }))
        v.v_configs)
    views;
  List.iter
    (fun (v : Smr.view) ->
      (* No holes in the retained committed region. *)
      Tbl.clear tbl;
      List.iter (fun (inst, _) -> ignore (Tbl.claim tbl inst 0 0)) v.v_log;
      for inst = v.v_floor to v.v_commit - 1 do
        if not (Tbl.mem tbl inst) then
          add (Hole_below_commit { node = v.v_node; inst })
      done;
      (* Validity: every chosen non-noop value — retained, snapshot-covered
         or configuration — was actually submitted (or registered as a
         reconfiguration). *)
      List.iter
        (fun (inst, value) ->
          if value <> Smr.noop && not (submitted value) then
            add (Unknown_command { node = v.v_node; inst; value }))
        v.v_log;
      List.iter
        (fun value ->
          if not (submitted value) then
            add (Unknown_command { node = v.v_node; inst = -1; value }))
        v.v_snap_applied;
      List.iter
        (fun (inst, cmd) ->
          if not (Smr.is_reconfig cmd && submitted cmd) then
            add (Unknown_command { node = v.v_node; inst; value = cmd }))
        v.v_configs;
      (* Exactly-once apply — across snapshot installs too: the inherited
         prefix and the live tail must not overlap. *)
      Tbl.clear tbl;
      List.iter
        (fun cmd ->
          if Tbl.claim tbl cmd 0 0 >= 0 then
            add (Duplicate_apply { node = v.v_node; cmd }))
        v.v_applied;
      (* Applied order = snapshot prefix + retained log order. *)
      if not (applies_in_order tbl v) then
        add
          (Apply_order_mismatch
             {
               node = v.v_node;
               expected = expected_applies tbl v;
               actual = v.v_applied;
             }))
    views;
  (* Snapshot prefix agreement: a snapshot taken at floor f packages the
     apply sequence of the prefix [0, f). Any replica whose commit index
     reaches f applied that same prefix first — so the snapshot must be a
     prefix of every such replica's applied sequence (its own included). *)
  List.iter
    (fun (a : Smr.view) ->
      if a.v_floor > 0 then
        List.iter
          (fun (b : Smr.view) ->
            if
              b.v_commit >= a.v_floor
              && not (is_prefix a.v_snap_applied b.v_applied)
            then
              add
                (Snapshot_divergence
                   { node = a.v_node; peer = b.v_node; floor = a.v_floor }))
          views)
    views;
  List.rev !violations

let check_views ~submitted views = check_views_in (Tbl.create 0) ~submitted views

let check h =
  let submitted cmd = Smr.was_submitted h cmd || Smr.was_reconfig h cmd in
  check_views ~submitted (List.map (Smr.view h) (Smr.nodes h))

(* ------------------------------------------------------------------ *)
(* Sharded (multi-group) extension. A sharded deployment multiplexes   *)
(* G independent SMR groups; the contract grows three clauses on top   *)
(* of the per-group one:                                               *)
(*   - per-group prefix agreement: the full single-group contract      *)
(*     holds inside every group independently;                         *)
(*   - cross-group exactly-once: a client command is chosen by at      *)
(*     most one group (the keyspace partition routed it there), and    *)
(*     applied at most once per replica even across distinct batches;  *)
(*   - batch atomicity: a batch's commands reach each replica's        *)
(*     flattened apply stream contiguously, in batch order, all or     *)
(*     nothing (nothing = the batch was covered by a snapshot          *)
(*     install, which bypasses per-command apply by design).           *)
(* ------------------------------------------------------------------ *)

type shard_view = {
  sv_group : int;
  sv_views : Smr.view list;
  sv_applied_cmds : (int * int list) list;
      (* node -> flattened client-command apply stream, oldest first *)
}

type shard_violation =
  | Group_violation of { group : int; violation : violation }
  | Cross_group_duplicate of {
      cmd : int;
      group_a : int;
      node_a : int;
      group_b : int;
      node_b : int;
    }
  | Batch_split of {
      group : int;
      node : int;
      batch : int;
      expected : int list;
      actual : int list;
    }

let pp_shard_violation fmt = function
  | Group_violation { group; violation } ->
      Format.fprintf fmt "group %d: %a" group pp_violation violation
  | Cross_group_duplicate { cmd; group_a; node_a; group_b; node_b } ->
      if group_a = group_b && node_a = node_b then
        Format.fprintf fmt
          "command %d applied twice at node %d of group %d (distinct batches)"
          cmd node_a group_a
      else
        Format.fprintf fmt
          "command %d escaped its shard: chosen by group %d (node %d) and \
           group %d (node %d)"
          cmd group_a node_a group_b node_b
  | Batch_split { group; node; batch; expected; actual } ->
      let render l = String.concat "," (List.map string_of_int l) in
      Format.fprintf fmt
        "group %d node %d split batch %d: commands [%s] did not apply \
         contiguously in order (stream fragment [%s])"
        group node batch (render expected) (render actual)

let shard_to_string v = Format.asprintf "%a" pp_shard_violation v

(* The node's flattened stream, [] when the shard view lists none. *)
let rec stream_of node = function
  | [] -> []
  | (n, l) :: rest -> if Int.equal n node then l else stream_of node rest

(* [cmds] lies in [buf.(pos .. len-1)] from [pos] on, element by element. *)
let rec lands_at buf pos len cmds =
  match cmds with
  | [] -> true
  | c :: cmds -> pos < len && Int.equal buf.(pos) c && lands_at buf (pos + 1) len cmds

let rec any_mem tbl = function
  | [] -> false
  | c :: cmds -> Tbl.mem tbl c || any_mem tbl cmds

let check_shard_views ~submitted ~expand shard_views =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  (* The table is sized for the largest clause, the cross-group witness:
     one entry per distinct client command, which each group's longest
     apply stream approximates from below. *)
  let longest =
    List.map
      (fun sv ->
        List.fold_left
          (fun m (_, flat) -> max m (List.length flat))
          0 sv.sv_applied_cmds)
      shard_views
  in
  let tbl = Tbl.create (List.fold_left ( + ) 0 longest) in
  (* Per-group: the full single-group contract, group by group. *)
  List.iter
    (fun sv ->
      List.iter
        (fun violation -> add (Group_violation { group = sv.sv_group; violation }))
        (check_views_in tbl ~submitted:(submitted sv.sv_group) sv.sv_views))
    shard_views;
  (* Batch atomicity, judged against each replica's flattened client-command
     stream: every batch value the replica applied must land in the stream
     contiguously and in batch order — or not at all (snapshot installs
     inherit applied state without replaying per-command). The stream is
     copied into [buf], and [tbl] maps each of its commands to its first
     position; both serve every view. Streams found duplicate-free on the
     way go to [unique], so the last clause need not scan them again. *)
  let buf = Array.make (List.fold_left max 0 longest) 0 and unique = ref [] in
  List.iter
    (fun sv ->
      List.iter
        (fun (v : Smr.view) ->
          let flat = stream_of v.v_node sv.sv_applied_cmds in
          let len = List.length flat in
          Tbl.clear tbl;
          let dup = ref false in
          List.iteri
            (fun i cmd ->
              buf.(i) <- cmd;
              if Tbl.claim tbl cmd i 0 >= 0 then dup := true)
            flat;
          if not !dup then unique := flat :: !unique;
          List.iter
            (fun value ->
              match expand value with
              | None | Some [] -> ()
              | Some (first :: _ as cmds) ->
                  let i = Tbl.find tbl first in
                  if i < 0 then begin
                    (* All-or-nothing: the head is absent, so no other
                       member of the batch may have landed either. *)
                    if any_mem tbl cmds then
                      add
                        (Batch_split
                           {
                             group = sv.sv_group;
                             node = v.v_node;
                             batch = value;
                             expected = cmds;
                             actual = [];
                           })
                  end
                  else
                    let pos = Tbl.a tbl i in
                    if not (lands_at buf pos len cmds) then
                      let k = min (List.length cmds) (len - pos) in
                      add
                        (Batch_split
                           {
                             group = sv.sv_group;
                             node = v.v_node;
                             batch = value;
                             expected = cmds;
                             actual = Array.to_list (Array.sub buf pos k);
                           }))
            v.v_applied)
        sv.sv_views)
    shard_views;
  (* Cross-group exactly-once, judged over chosen logs (replication inside
     a group is expected; the same client command chosen by two different
     groups means the keyspace routing forked). Noops and reconfiguration
     commands are not client commands. [tbl]: command -> first (group,
     node). A group's replicas mostly hold the same values, and a value
     whose commands all came out witnessed by this group cannot flag
     anything when the group holds it again: [clean] keeps those values,
     per group, and they are skipped. *)
  Tbl.clear tbl;
  let clean = Tbl.create 0 in
  List.iter
    (fun sv ->
      let group = sv.sv_group in
      Tbl.clear clean;
      List.iter
        (fun (v : Smr.view) ->
          let flagged = ref false in
          let witness cmd =
            let i = Tbl.claim tbl cmd group v.v_node in
            if i >= 0 && Tbl.a tbl i <> group then begin
              flagged := true;
              add
                (Cross_group_duplicate
                   {
                     cmd;
                     group_a = Tbl.a tbl i;
                     node_a = Tbl.b tbl i;
                     group_b = group;
                     node_b = v.v_node;
                   })
            end
          in
          List.iter
            (fun (_inst, value) ->
              if
                value <> Smr.noop
                && (not (Smr.is_reconfig value))
                && not (Tbl.mem clean value)
              then begin
                flagged := false;
                (match expand value with
                | Some cmds -> List.iter witness cmds
                | None -> witness value);
                if not !flagged then ignore (Tbl.claim clean value 0 0)
              end)
            v.v_log)
        sv.sv_views)
    shard_views;
  (* Exactly-once per replica across batches: the flattened stream of one
     node must not apply the same client command twice, even when the two
     occurrences hide inside two different (distinct-valued) batches —
     which the per-group Duplicate_apply clause, working on batch values,
     cannot see. *)
  List.iter
    (fun sv ->
      List.iter
        (fun (node, flat) ->
          if not (List.memq flat !unique) then begin
            Tbl.clear tbl;
            List.iter
              (fun cmd ->
                if Tbl.claim tbl cmd 0 0 >= 0 then
                  add
                    (Cross_group_duplicate
                       {
                         cmd;
                         group_a = sv.sv_group;
                         node_a = node;
                         group_b = sv.sv_group;
                         node_b = node;
                       }))
              flat
          end)
        sv.sv_applied_cmds)
    shard_views;
  List.rev !violations
