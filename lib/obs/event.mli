(** The engine's event stream: one typed event per observable step of a
    run, handed to a single {!observer} slot.

    Every recorder of a run is a fold over this stream, each in its own
    module: the causal DAG ({!Provenance.observer}), the structured trace
    ([Amac.Trace.observer]) and the engine metric family ({!metrics}). The
    engine knows none of their formats; a new event kind is added once, here,
    and each fold decides what it makes of it.

    Events carry no provenance ids. Sec 2's contract makes them redundant: a
    sender has at most one broadcast in flight until its ack, and every
    delivery of that broadcast lands no later than the ack, so a fold can
    attribute each [Deliver] and [Ack] to the sender's latest [Broadcast]. *)

type 'm t =
  | Step of { depth : int }
      (** an event was popped within [max_time]; [depth] is the queue length
          before the pop *)
  | Capped of { depth : int }
      (** the popped event lies past [max_time]: the run stops here *)
  | Boot of { node : int; incarnation : int }
      (** [node]'s [init] is about to run: at time 0 as incarnation 0, and
          again on every recovery with the bumped incarnation *)
  | Crash of { node : int }
  | Inject of { node : int; payload : int }
      (** an injection is about to be handed to [on_inject] *)
  | Broadcast of { node : int; ids : int; msg : 'm }
      (** the MAC layer accepted a broadcast carrying [ids] unique ids *)
  | Discard of { node : int; msg : 'm }
      (** a broadcast attempted while one was in flight *)
  | Contention of { node : int; contention : int; stretch : int }
      (** interference mode only: the accepted broadcast just announced saw
          [contention] on-air neighbors and had its plan shifted by
          [stretch] *)
  | Unreliable  (** one delivery granted on an unreliable edge was queued *)
  | Deliver of { node : int; sender : int; msg : 'm; substituted : bool }
      (** [msg] (the payload actually delivered) is about to reach [node]'s
          [on_receive]; [substituted] when the adversary hook replaced it *)
  | Stale
      (** a delivery or injection dropped because its receiver is down, or a
          delivery whose sender crashed or restarted since it was sent *)
  | Link_drop of { node : int; sender : int }
      (** a delivery eaten by the [drop] fault hook *)
  | Suppress of { node : int; sender : int }
      (** a delivery eaten by the [substitute] adversary hook *)
  | Ack of { node : int }  (** [node]'s live ack is about to reach [on_ack] *)
  | Decide of { node : int; value : int }  (** [node]'s first decision *)
  | Stutter of { node : int; actions : int }
      (** a stutter window suppressed [actions] handler actions *)

(** Called in emission order with the event's engine time. *)
type 'm observer = time:int -> 'm t -> unit

(** [metrics reg ~algorithm ~scheduler ~n ~interference] registers the
    engine metric family in [reg] and returns the fold that keeps it:
    event, delivery, ack, drop (labelled [reason=stale] or [reason=link]),
    discard, stutter, crash, recovery and unreliable-delivery counters;
    per-node broadcast counters; the queue-depth high-water mark and the
    end-time gauge; and ack-latency and decide-latency histograms, both
    global and per node (a [node] label). With [interference] it also
    registers the contention histogram, its high-water gauge and global and
    per-node ack-stretch histograms; without it those families never exist,
    so contention-free snapshots are unchanged. Every instrument carries
    [algorithm] and [scheduler] labels. *)
val metrics :
  Metrics.registry ->
  algorithm:string ->
  scheduler:string ->
  n:int ->
  interference:bool ->
  'm observer
