(** Counter-race binary consensus — adapted from Newport & Robinson,
    "Fault-Tolerant Consensus with an Abstract MAC Layer" (DISC 2018,
    arXiv:1810.02848), the crash-tolerant successor to the source paper.

    Their insight: acknowledged broadcast lets nodes race {e counters}
    instead of collecting quorums, so the algorithm needs {e no knowledge
    of n} and never waits on a dead node — it is crash-stop tolerant for
    any number of crashes in single-hop networks. Each node keeps a pair
    [(c, v)] (counter, preferred value):

    - it rebroadcasts [(c, v)] continuously;
    - a received strictly larger pair (lexicographic) is adopted;
    - when a broadcast is acked with the pair unchanged — i.e. the pair
      survived a full acknowledged-broadcast cycle as the local maximum —
      the counter increments;
    - it tracks [maxSeen(w)], the largest counter observed attached to each
      value [w], and decides [v] once [c >= maxSeen(1 - v) + margin]: the
      rival value has been left so far behind that (by the MAC layer's
      delivery guarantee) no rival pair can still overtake undetected.

    This is a simplified transplant, not the paper's full protocol; the
    decision [margin] is the safety knob. [margin = 3] is the default and
    survives our fuzz and exhaustive-exploration campaigns; [margin = 2]
    is {e demonstrably unsafe} — the fuzzer exhibits an agreement
    violation (see test_counter_race) — which is why the knob is exposed:
    a known-bad setting makes the verification harness prove it is
    actually looking. Tolerates crash-stop faults only (an amnesiac
    restart re-enters the race from [c = 0] and re-converges, but
    mid-broadcast crash interleavings under recovery are outside the
    safety argument — the matrix pins what holds empirically).

    Binary consensus: inputs must be 0 or 1.
    @raise Invalid_argument at init on a non-binary input. *)

type state

type msg = { sender : int; c : int; v : int }
(** Exposed (not abstract) so {!adapter} can forge and mutate payloads —
    the attack surface is precisely [c] inflation and [v] flips. *)

(** [make ?margin ()] — [margin] is the decision threshold distance
    (default 3; 2 is known-unsafe, see above). *)
val make : ?margin:int -> unit -> (state, msg) Amac.Algorithm.t

(** The Byzantine adapter: mutations inflate [c] or flip [v], forgeries
    carry the forger's own id (authenticated channels). The margin
    argument assumes honest counters, so this breaks the algorithm —
    documented by test_byz, not a defect. *)
val adapter : msg Byz.Model.adapter
