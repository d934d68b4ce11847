(** A priority queue of ints for keys that mostly land a short distance
    past the last one popped.

    {!Engine} keys its events by [(time, kind)], and Sec 2's abstract MAC
    contract puts every receive and ack of a broadcast within F_ack of it
    (plus the interference stretch, when the scheduler has one). So almost
    every key the engine adds is a few ticks past [now]. This queue keeps
    those in a {e ring} of FIFOs, one per key, covering [span] keys from
    the last popped key onward: an add appends to its key's FIFO and a pop
    takes the head of the first non-empty one, both in constant time. Keys
    outside the window — pre-scheduled faults, injections and topology
    deltas, an unusually large stretch, or a key below the last popped one
    — go to an overflow: a binary min-heap over three int arrays (key,
    insertion sequence, value), so an overflow add allocates nothing
    unless the arrays double.

    Values are ints (the engine queues indices of pooled event
    descriptors), and the ring's FIFO cells are pooled too: two int arrays
    (value, next) with a free list, grown by doubling and never shrunk. A
    pop frees its cell, so at a steady depth the pool stops growing and an
    add or a ring pop allocates nothing. {!pop} returns the value alone and
    {!popped_key} tells its key, so no pair is built either.

    Pops come out by key, and by insertion among equal keys. When equal
    keys are split between the overflow and the ring, the overflow's were
    all inserted first (a key enters the ring only once the window has
    reached it, and the window never moves back), so the overflow wins
    ties. *)

type t

(** [create ~span] is an empty queue whose ring covers at least [span]
    consecutive keys (rounded up to a power of two).
    @raise Invalid_argument if [span < 1]. *)
val create : span:int -> t

(** [length q] is the number of queued entries, ring and overflow. *)
val length : t -> int

(** [is_empty q] is [length q = 0]. *)
val is_empty : t -> bool

(** [add q ~key v] enqueues [v] with priority [key]. *)
val add : t -> key:int -> int -> unit

(** [pop q] removes the minimum-key entry, ties broken by insertion order,
    and returns its value; {!popped_key} then tells its key.
    @raise Not_found if the queue is empty. *)
val pop : t -> int

(** [popped_key q] is the key of the entry the last {!pop} returned (0
    before the first pop). *)
val popped_key : t -> int

(** [cells q] is the size of the ring's cell pool: the most ring entries
    ever queued at once, rounded up to the pool's doubling steps. *)
val cells : t -> int
