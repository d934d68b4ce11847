(* The safety checker as it stood before its flat-table rewrite, kept
   verbatim below this comment as the reference implementation that
   test_smr_checker.ml compares Smr_checker against. *)

type view = {
  v_node : int;
  v_log : (int * int) list;
  v_commit : int;
  v_applied : int list;
  v_floor : int;
  v_snap_applied : int list;
  v_configs : (int * int) list;
  v_epoch : int;
}

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

(* The expected apply sequence from a node's own retained log: committed
   prefix above the compaction floor, in instance order, noops and
   reconfiguration commands dropped, duplicate chosen commands applied only
   at their first instance — all appended after the snapshot-inherited
   prefix (whose commands must not be applied again). *)
let expected_applies v =
  let seen = Hashtbl.create 16 in
  List.iter (fun cmd -> Hashtbl.replace seen cmd ()) v.v_snap_applied;
  let tail =
    List.filter_map
      (fun (inst, value) ->
        if
          inst < v.v_floor || inst >= v.v_commit || value = Smr.noop
          || Smr.is_reconfig value
          || Hashtbl.mem seen value
        then None
        else begin
          Hashtbl.replace seen value ();
          Some value
        end)
      v.v_log
  in
  v.v_snap_applied @ tail

let rec is_prefix prefix l =
  match (prefix, l) with
  | [], _ -> true
  | _, [] -> false
  | a :: pa, b :: pb -> a = b && is_prefix pa pb

let check_views ~submitted views =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  (* Prefix agreement: any two replicas that both chose an instance agree
     on its value. (Logs of different lengths are fine — a straggler's log
     is a sub-log, not a violation.) *)
  let chosen_at : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun v ->
      List.iter
        (fun (inst, value) ->
          match Hashtbl.find_opt chosen_at inst with
          | None -> Hashtbl.replace chosen_at inst (v.v_node, value)
          | Some (node_a, value_a) ->
              if value_a <> value then
                add
                  (Log_disagreement
                     {
                       inst;
                       node_a;
                       value_a;
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
  let configs_at : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun v ->
      List.iter
        (fun (inst, cmd) ->
          match Hashtbl.find_opt configs_at inst with
          | None -> Hashtbl.replace configs_at inst (v.v_node, cmd)
          | Some (node_a, cmd_a) ->
              if cmd_a <> cmd then
                add
                  (Epoch_divergence
                     { inst; node_a; cmd_a; node_b = v.v_node; cmd_b = cmd }))
        v.v_configs)
    views;
  List.iter
    (fun v ->
      (* No holes in the retained committed region. *)
      let chosen = Hashtbl.create 16 in
      List.iter (fun (inst, value) -> Hashtbl.replace chosen inst value) v.v_log;
      for inst = v.v_floor to v.v_commit - 1 do
        if not (Hashtbl.mem chosen inst) then
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
      let dup = Hashtbl.create 16 in
      List.iter
        (fun cmd ->
          if Hashtbl.mem dup cmd then
            add (Duplicate_apply { node = v.v_node; cmd })
          else Hashtbl.replace dup cmd ())
        v.v_applied;
      (* Applied order = snapshot prefix + retained log order. *)
      let expected = expected_applies v in
      if expected <> v.v_applied then
        add
          (Apply_order_mismatch
             { node = v.v_node; expected; actual = v.v_applied }))
    views;
  (* Snapshot prefix agreement: a snapshot taken at floor f packages the
     apply sequence of the prefix [0, f). Any replica whose commit index
     reaches f applied that same prefix first — so the snapshot must be a
     prefix of every such replica's applied sequence (its own included). *)
  List.iter
    (fun a ->
      if a.v_floor > 0 then
        List.iter
          (fun b ->
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
  sv_views : view list;
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

let check_shard_views ~submitted ~expand shard_views =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  (* Per-group: the full single-group contract, group by group. *)
  List.iter
    (fun sv ->
      List.iter
        (fun violation -> add (Group_violation { group = sv.sv_group; violation }))
        (check_views ~submitted:(submitted sv.sv_group) sv.sv_views))
    shard_views;
  (* Batch atomicity, judged against each replica's flattened client-command
     stream: every batch value the replica applied must land in the stream
     contiguously and in batch order — or not at all (snapshot installs
     inherit applied state without replaying per-command). [first_index]
     maps each command of the replica's stream to its first position; one
     table serves every view. *)
  let first_index = Hashtbl.create 1024 in
  List.iter
    (fun sv ->
      List.iter
        (fun v ->
          let flat =
            match List.assoc_opt v.v_node sv.sv_applied_cmds with
            | Some l -> l
            | None -> []
          in
          let flat_arr = Array.of_list flat in
          Hashtbl.clear first_index;
          for i = Array.length flat_arr - 1 downto 0 do
            Hashtbl.replace first_index flat_arr.(i) i
          done;
          List.iter
            (fun value ->
              match expand value with
              | None | Some [] -> ()
              | Some (first :: _ as cmds) -> (
                  let k = List.length cmds in
                  match Hashtbl.find_opt first_index first with
                  | None ->
                      (* All-or-nothing: the head is absent, so no other
                         member of the batch may have landed either. *)
                      if List.exists (Hashtbl.mem first_index) cmds then
                        add
                          (Batch_split
                             {
                               group = sv.sv_group;
                               node = v.v_node;
                               batch = value;
                               expected = cmds;
                               actual = [];
                             })
                  | Some i ->
                      let avail = Array.length flat_arr - i in
                      let actual =
                        Array.to_list (Array.sub flat_arr i (min k avail))
                      in
                      if actual <> cmds then
                        add
                          (Batch_split
                             {
                               group = sv.sv_group;
                               node = v.v_node;
                               batch = value;
                               expected = cmds;
                               actual;
                             })))
            v.v_applied)
        sv.sv_views)
    shard_views;
  (* Cross-group exactly-once, judged over chosen logs (replication inside
     a group is expected; the same client command chosen by two different
     groups means the keyspace routing forked). Noops and reconfiguration
     commands are not client commands. *)
  let witness : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun sv ->
      List.iter
        (fun v ->
          List.iter
            (fun (_inst, value) ->
              if value <> Smr.noop && not (Smr.is_reconfig value) then
                let cmds =
                  match expand value with Some l -> l | None -> [ value ]
                in
                List.iter
                  (fun cmd ->
                    match Hashtbl.find_opt witness cmd with
                    | None -> Hashtbl.replace witness cmd (sv.sv_group, v.v_node)
                    | Some (group_a, node_a) ->
                        if group_a <> sv.sv_group then
                          add
                            (Cross_group_duplicate
                               {
                                 cmd;
                                 group_a;
                                 node_a;
                                 group_b = sv.sv_group;
                                 node_b = v.v_node;
                               }))
                  cmds)
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
          let seen = Hashtbl.create 16 in
          List.iter
            (fun cmd ->
              if Hashtbl.mem seen cmd then
                add
                  (Cross_group_duplicate
                     {
                       cmd;
                       group_a = sv.sv_group;
                       node_a = node;
                       group_b = sv.sv_group;
                       node_b = node;
                     })
              else Hashtbl.replace seen cmd ())
            flat)
        sv.sv_applied_cmds)
    shard_views;
  List.rev !violations
