(** Structured execution logs.

    When recording is enabled, {!observer} folds the engine's
    {!Obs.Event} stream into one entry per observable event. Message
    payloads are rendered to strings as they arrive (via the caller-supplied
    printer) so the trace type stays monomorphic. *)

type entry =
  | Broadcast_start of { time : int; node : int; ids : int; msg : string }
      (** a broadcast was handed to the MAC layer ([ids] = unique ids it
          carries) *)
  | Delivered of {
      time : int;
      node : int;
      sender : int;
      msg : string;
      cause : int;
          (** provenance vertex id of the broadcast this delivery belongs
              to, when the run collects a {!Obs.Provenance} DAG; [-1]
              otherwise *)
    }  (** a message from [sender] was delivered at [node] *)
  | Acked of { time : int; node : int }
      (** [node]'s in-flight broadcast completed *)
  | Decided of { time : int; node : int; value : int }
  | Discarded of { time : int; node : int; msg : string }
      (** [node] attempted to broadcast while one was already in flight *)
  | Crashed of { time : int; node : int }
  | Recovered of { time : int; node : int; incarnation : int }
      (** [node] rejoined with fresh state as [incarnation] (amnesiac
          restart) *)
  | Link_dropped of { time : int; node : int; sender : int }
      (** a delivery to [node] from [sender] was eaten by an injected link
          fault (loss window or partition) *)
  | Stuttered of { time : int; node : int; actions : int }
      (** [node] was inside a stutter window: it processed the event but its
          [actions] resulting actions were suppressed *)
  | Suppressed of { time : int; node : int; sender : int }
      (** a delivery to [node] from [sender] was eaten by the [substitute]
          adversary hook — Byzantine selective silence *)
  | Substituted of { time : int; node : int; sender : int; msg : string }
      (** the [substitute] adversary hook replaced the payload delivered to
          [node] — Byzantine equivocation or forgery; [msg] renders the
          payload actually delivered *)

(** [observer ~n ~pp_msg ~cause] is the fold that records a trace of an
    [n]-node run, rendering payloads with [pp_msg], paired with the entries
    recorded so far, oldest first. A delivery of the sender's latest
    broadcast message (physically equal to it) shares that broadcast's
    rendered string, so [pp_msg] must be a pure function of the message;
    substituted payloads and discards are rendered on their own.
    [cause sender] fills [Delivered.cause]: the vertex id of [sender]'s
    in-flight broadcast, from {!Obs.Provenance.observer}, or [fun _ -> -1]
    when no DAG is collected. *)
val observer :
  n:int ->
  pp_msg:('m -> string) ->
  cause:(int -> int) ->
  'm Obs.Event.observer * (unit -> entry list)

val time_of : entry -> int

(** [pp fmt entries] prints one entry per line, in order. *)
val pp : Format.formatter -> entry list -> unit

(** [timeline ~n entries] renders an ASCII time/node grid: one row per tick
    with an event, one column per node. Cell codes: [B] broadcast start,
    [r] message received, [a] ack, [D] decided, [X] crashed, [R] recovered,
    [~] broadcast discarded (busy), [!] delivery lost to a link fault, [s]
    stuttered, [#] delivery suppressed by the adversary hook, [*] payload
    substituted by it. When several events hit the same node at the same tick,
    decisions, crashes and recoveries win, then broadcasts, then receives,
    then acks. Intended for small runs (the examples); n is the node
    count. *)
val timeline : n:int -> entry list -> string
