(** Network topologies.

    A topology is an undirected, connected graph over node indices
    [\[0, n)]. The abstract MAC layer model (Sec 2 of the paper) fixes a
    graph [G = (V, E)] whose edges are the reliable-communication pairs; this
    module provides the standard families used throughout the experiments
    plus the structural queries ([diameter], [is_connected], ...) the
    analyses need. The paper-specific gadget networks (Fig 1's networks A
    and B, Fig 2's K_D) are assembled from these primitives in
    [Lowerbound.Gadgets]. *)

type t

(** {1 Construction} *)

(** [of_edges ~n edges] builds a graph over [n] nodes from an undirected edge
    list. Self-loops and duplicate edges are rejected.
    @raise Invalid_argument on out-of-range endpoints, self-loops or
    duplicates. *)
val of_edges : n:int -> (int * int) list -> t

(** [clique n] is the complete graph: the paper's "single hop" setting. *)
val clique : int -> t

(** [line n] is the path 0 – 1 – ... – n-1 (diameter n-1): the worst case for
    the Thm 3.10 partition bound. *)
val line : int -> t

(** [ring n] is the cycle on [n >= 3] nodes. *)
val ring : int -> t

(** [star n] is one hub (index 0) and [n-1] leaves: the canonical aggregation
    bottleneck motivating wPAXOS's trees. *)
val star : int -> t

(** [grid ~width ~height] is the 2-D mesh, row-major indexing. *)
val grid : width:int -> height:int -> t

(** [torus ~width ~height] is the 2-D mesh with wraparound;
    requires [width >= 3] and [height >= 3] so wraparound edges are distinct. *)
val torus : width:int -> height:int -> t

(** [binary_tree n] is the complete binary heap-shaped tree on [n] nodes
    (children of [i] at [2i+1], [2i+2]). *)
val binary_tree : int -> t

(** [star_of_lines ~arms ~arm_len] is [arms] disjoint paths of [arm_len]
    nodes, each attached to one central hub. Diameter [2 * arm_len]; size
    [arms * arm_len + 1]. Fixing [arm_len] while growing [arms] grows [n]
    with constant [D] — the E3 workload separating O(D·F_ack) from
    O(n·F_ack). *)
val star_of_lines : arms:int -> arm_len:int -> t

(** [random_connected rng ~n ~extra_edges] is a uniformly random spanning
    tree plus [extra_edges] distinct random chords: always connected,
    randomly shaped. Deterministic in [rng]. *)
val random_connected : Rng.t -> n:int -> extra_edges:int -> t

(** {1 In-place deltas}

    Churn and mobility are expressed as edge deltas applied {e in place}
    (O(degree) each, no rebuild), so a 1000-node graph under churn never
    re-allocates its adjacency structure. A topology is a mutable value once
    deltas are in play: callers that need the original intact should
    {!copy} first (the engine does exactly that when given a delta
    schedule). *)

type delta =
  | Add_edge of int * int  (** endpoints unordered; edge must be absent *)
  | Remove_edge of int * int  (** edge must be present *)

(** [copy t] is an independent topology; deltas applied to either side are
    invisible to the other. *)
val copy : t -> t

(** [add_edge t u v] inserts the edge in place, keeping neighbor lists
    sorted. @raise Invalid_argument if invalid or already present. *)
val add_edge : t -> int -> int -> unit

(** [remove_edge t u v] deletes the edge in place.
    @raise Invalid_argument if invalid or absent. *)
val remove_edge : t -> int -> int -> unit

(** [apply_delta t d] is [add_edge] or [remove_edge] per the delta. *)
val apply_delta : t -> delta -> unit

(** {1 Queries} *)

(** [size t] is the number of nodes [n]. *)
val size : t -> int

(** [neighbors t u] is the adjacency list of [u], sorted increasing. *)
val neighbors : t -> int -> int list

(** [degree t u] is [List.length (neighbors t u)]. *)
val degree : t -> int -> int

(** [has_edge t u v] tests adjacency. *)
val has_edge : t -> int -> int -> bool

(** [edges t] is each undirected edge once, as [(u, v)] with [u < v]. *)
val edges : t -> (int * int) list

(** [is_connected t] is true iff every node is reachable from node 0
    (vacuously true for [n <= 1]). *)
val is_connected : t -> bool

(** [diameter t] is the paper's [D]: the maximum eccentricity.
    @raise Invalid_argument if [t] is disconnected. *)
val diameter : t -> int

(** [pp] prints a short summary ("n=12 m=17 D=4"). *)
val pp : Format.formatter -> t -> unit
