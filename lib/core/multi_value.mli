(** Multi-valued consensus from binary consensus — the reduction the paper
    treats as the baseline for its open problem (Sec 2: "a solution more
    efficient than agreeing on the bits of a general value, one by one,
    using binary consensus" is non-trivial and open; this module implements
    exactly that one-by-one reduction, carefully).

    Given any binary consensus algorithm for the model, [make] builds an
    algorithm deciding values in [\[0, 2^bits)]. Instances of the binary
    algorithm run sequentially, instance [j] agreeing on bit [j] (LSB
    first). The naive reduction — every node always proposes the bit of its
    own input — breaks {e validity}: the decided bit-vector can be a
    mixture matching no input. The fix is the classic candidate-adoption
    protocol:

    - every node maintains a {e candidate} (initially its input), and
      proposes the candidate's bit [j] to instance [j];
    - when bit [j] is decided, nodes whose candidate disagrees with the
      decided prefix must {e adopt}: by the binary algorithm's validity the
      decided bit was proposed by some node whose candidate matches the
      whole decided prefix, and each such node floods its candidate after
      the instance; inconsistent nodes adopt the first such candidate they
      hear (and re-flood it, so it propagates in multihop networks);
    - after the last bit, a node's candidate equals the decided bit-vector,
      which by induction is some node's input: validity holds.

    All instance traffic is multiplexed over the node's single MAC-layer
    channel (messages are tagged with their instance; future-instance
    messages from faster nodes are buffered and replayed).

    Works over any binary algorithm that terminates without crashes in the
    target topology class — e.g. [Two_phase.algorithm] for single hop,
    [Wpaxos.make ()] for multihop. Time is [bits] times the base
    algorithm's latency plus a candidate-flood round per bit. *)

type 'm msg

type ('s, 'm) state

(** [make ~bits base] — values are integers in [\[0, 2^bits)]; inputs
    outside that range are rejected at [init] time.
    @raise Invalid_argument if [bits < 1] or [bits > 30]. *)
val make :
  bits:int ->
  ('s, 'm) Amac.Algorithm.t ->
  (('s, 'm) state, 'm msg) Amac.Algorithm.t
