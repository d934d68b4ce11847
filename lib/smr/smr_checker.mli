(** The SMR safety contract, checked over a {!Smr.handle} after (or during)
    a run. All clauses are safety properties — they must hold in every
    schedule, under every fault plan:

    - {e prefix agreement}: two replicas never choose different values for
      the same instance (a shorter log is fine, a conflicting one is not);
    - {e configuration agreement}: two replicas never commit different
      reconfigurations at the same instance — checked over the
      configuration history, which survives log compaction, so a fork in
      quorum rules (an "epoch crossing") is caught even after the log
      entries that caused it were truncated;
    - {e no holes in the retained committed region}: the commit index only
      covers contiguously chosen instances, down to the compaction floor;
    - {e exactly-once apply}: no command reaches a replica's state machine
      twice — {e across snapshot installs too}: a snapshot-inherited prefix
      and the live tail must not overlap (within an incarnation — recovery
      is amnesiac by the model's semantics);
    - {e applied order = log order}: the apply sequence equals the
      snapshot-inherited prefix followed by the retained committed prefix,
      filtered of noops, reconfiguration commands and re-chosen duplicates;
    - {e snapshot prefix agreement}: a snapshot at floor [f] packages the
      apply sequence of [[0, f)]; it must be a prefix of the applied
      sequence of every replica whose commit index reaches [f];

    plus validity: every chosen, snapshot-covered or configuration command
    was actually submitted (or registered as a reconfiguration).

    {!check} reads the live handle through {!Smr.view}; {!check_views}
    runs the same contract over explicit {!Smr.view} values, which is what
    the negative tests use to prove the checker actually flags each
    violation class.

    {b Cost.} {!check_views} and {!check_shard_views} take time linear in
    the total size of the views (the snapshot clause excepted: it compares
    each compacted replica with every other), and allocate nothing per
    log entry, apply or stream command: one flat int table per call,
    cleared between views and clauses, replaces per-view hash tables, and
    the apply-order and batch-atomicity clauses compare in place. Lists
    are built only for a violation's payload. Violations come in the same
    order as the earlier list-and-[Hashtbl] checker, which
    [test/smr_checker_oracle.ml] keeps as the reference. *)

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
      (** [inst = -1] marks a never-submitted command inside a snapshot. *)
  | Snapshot_divergence of { node : int; peer : int; floor : int }
  | Epoch_divergence of {
      inst : int;
      node_a : int;
      cmd_a : int;
      node_b : int;
      cmd_b : int;
    }

val pp_violation : Format.formatter -> violation -> unit

val to_string : violation -> string

(** [check_views ~submitted views] — the full contract over explicit
    views; [submitted] is the validity oracle (client submissions and
    registered reconfigurations). The clauses read a view's [v_node],
    [v_log], [v_commit], [v_applied], [v_floor], [v_snap_applied] and
    [v_configs]. Deterministic order; empty = holds. *)
val check_views : submitted:(int -> bool) -> Smr.view list -> violation list

(** All violations, in deterministic order (empty = the contract holds). *)
val check : Smr.handle -> violation list

(** {2 Sharded (multi-group) contract}

    A sharded deployment multiplexes G independent SMR groups over one
    MAC layer, with client commands carried in batches. Three clauses on
    top of the per-group contract:

    - {e per-group prefix agreement}: the full single-group contract
      holds inside every group independently;
    - {e cross-group exactly-once}: a client command is chosen by at
      most one group, and applied at most once per replica even when the
      two occurrences hide in distinct batches;
    - {e batch atomicity}: a batch's commands land in each replica's
      flattened apply stream contiguously, in batch order, all or
      nothing (nothing = covered by a snapshot install, which inherits
      applied state without replaying per-command). *)

(** One group's checkable state: the per-replica {!Smr.view}s plus each
    replica's flattened client-command apply stream (batches expanded,
    oldest first). *)
type shard_view = {
  sv_group : int;
  sv_views : Smr.view list;
  sv_applied_cmds : (int * int list) list;
}

type shard_violation =
  | Group_violation of { group : int; violation : violation }
  | Cross_group_duplicate of {
      cmd : int;
      group_a : int;
      node_a : int;
      group_b : int;
      node_b : int;
    }  (** [group_a = group_b] flags a same-replica duplicate hidden in
           two distinct batches. *)
  | Batch_split of {
      group : int;
      node : int;
      batch : int;
      expected : int list;
      actual : int list;
    }

val pp_shard_violation : Format.formatter -> shard_violation -> unit

val shard_to_string : shard_violation -> string

(** [check_shard_views ~submitted ~expand svs] — the sharded contract
    over explicit views. [submitted group cmd] is group-local validity;
    [expand value] returns [Some cmds] iff [value] is a batch (oldest
    first), [None] for a plain command. Deterministic order; empty =
    holds. *)
val check_shard_views :
  submitted:(int -> int -> bool) ->
  expand:(int -> int list option) ->
  shard_view list ->
  shard_violation list
