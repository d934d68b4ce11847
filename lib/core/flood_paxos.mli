(** PAXOS over naive flooding — the O(n · F_ack) comparator of Sec 4.2.

    Identical high-level logic to {!Wpaxos} (same proposer/acceptor rules,
    same leader-election and change services), but acceptor responses are
    {e flooded individually} instead of aggregated up a routing tree: every
    response is a separate unit carrying its responder's id, every node
    re-broadcasts each unit once, and a message carries at most one unit.
    A proposer waiting on a majority must therefore receive Θ(n) distinct
    units, and any bottleneck node must forward Θ(n) units one broadcast at
    a time — the paper's argument for why "PAXOS + basic flooding" costs
    O(n · F_ack) and why the stabilising tree services are the actual
    contribution (experiments E3 and E9). *)

type component

(** One MAC-layer broadcast: at most one component per queue. *)
type msg = component list

type state

val make : unit -> (state, msg) Amac.Algorithm.t

val pp_msg : msg -> string
