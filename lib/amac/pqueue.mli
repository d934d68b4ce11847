(** Binary min-heap priority queue keyed by integer priorities.

    The overflow of the engine's {!Bucket_queue}, and the sharded
    transport's outboxes. Entries with equal keys are returned in insertion
    order (the heap stores a monotonically increasing sequence number
    alongside each key), which makes simulation runs fully deterministic. *)

type 'a t

(** [create ()] is a fresh empty queue. *)
val create : unit -> 'a t

(** [length q] is the number of queued entries. *)
val length : 'a t -> int

(** [is_empty q] is [length q = 0]. *)
val is_empty : 'a t -> bool

(** [add q ~key v] enqueues [v] with priority [key]. *)
val add : 'a t -> key:int -> 'a -> unit

(** [pop q] removes and returns the minimum-key entry, ties broken by
    insertion order. @raise Not_found if the queue is empty. *)
val pop : 'a t -> int * 'a

(** [pop_min q] is [snd (pop q)], without building the pair.
    @raise Not_found if the queue is empty. *)
val pop_min : 'a t -> 'a

(** [min_key q] is the minimum key, without removing its entry.
    @raise Not_found if the queue is empty. *)
val min_key : 'a t -> int

(** [clear q] removes every entry. *)
val clear : 'a t -> unit

(** [ensure_capacity q n ~dummy] grows the backing array to hold at least
    [n] entries without further allocation. [dummy] fills the unused slots
    and is never returned by {!pop}/{!pop_min}. Together with {!clear} this is
    the reuse path for pooled queues (e.g. the sharded transport's
    per-group outboxes): clear + ensure_capacity instead of reallocating a
    fresh queue per group or per incarnation. *)
val ensure_capacity : 'a t -> int -> dummy:'a -> unit

(** [of_list entries] is a queue holding every (key, value) pair, with
    insertion order (and so FIFO tie-breaking) following the list — what
    engine reset paths use instead of rebuilding element-by-element. *)
val of_list : (int * 'a) list -> 'a t

(** [to_list q] is every queued (key, value) pair in unspecified order;
    intended for tests and debugging. *)
val to_list : 'a t -> (int * 'a) list
