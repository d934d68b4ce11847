(** Types shared by the PAXOS logic and the wPAXOS support services
    (Sec 4.2).

    A proposal number is a (tag, proposer id) pair compared
    lexicographically; tags stay polynomial in n (Lemma 4.4). Acceptor
    responses are the unit the tree-aggregation machinery of Sec 4.2.1
    manipulates: responses of the same kind to the same proposition,
    traveling to the same parent, merge into one response carrying a count —
    plus the largest embedded prior proposal / committed number, which is all
    PAXOS's phase-2 value choice needs (footnote 6 of the paper). The merge
    itself is {!Services.enqueue} with each protocol's merge function. *)

(** Proposal numbers, ordered by tag then proposer id. *)
type pno = { tag : int; proposer : int }

val compare_pno : pno -> pno -> int

val pno_lt : pno -> pno -> bool

val pno_le : pno -> pno -> bool

val pp_pno : pno -> string

(** A previously accepted proposal, as reported in promises. *)
type prior = { pno : pno; value : int }

(** [max_prior a b] keeps the higher-numbered of two optional priors. *)
val max_prior : prior option -> prior option -> prior option

(** [max_committed a b] keeps the larger of two optional proposal numbers
    (used to aggregate the committed numbers piggybacked on rejections). *)
val max_committed : pno option -> pno option -> pno option

(** Proposer-originated messages, disseminated by flooding. *)
type proposer_msg =
  | Prepare of pno
  | Propose of { pno : pno; value : int }

val pno_of_proposer_msg : proposer_msg -> pno

(** Which proposition a response refers to. *)
type round = Prepare_round | Propose_round

(** Rounds of the same proposal number are ordered Prepare < Propose. *)
val compare_proposition : pno * round -> pno * round -> int

(** An (possibly aggregated) acceptor response traveling up the tree toward
    the proposer. [dest] is the id of the next hop (the responder's parent in
    the tree rooted at the proposer); every other receiver ignores it.
    [count] is how many acceptors this response stands for. *)
type response = {
  dest : int;
  target : int;  (** id of the proposer this responds to *)
  pno : pno;
  round : round;
  positive : bool;
  count : int;
  best_prior : prior option;
      (** among positive prepare responses: highest prior accepted *)
  committed : pno option;
      (** among negative responses: largest number already committed *)
}

(** Wire text, as the trace records it: [prepare(3.1)], [propose(3.1,v=0)],
    [resp{to=2;tgt=1;3.1/prep;yes;x4;prior=2.0:1;comm=3.0}] (the [prior]
    and [comm] parts only when present). The [add_*] writers append it to a
    buffer, ints in decimal as [%d] prints them; the [pp_*] functions return
    it as a string. *)

val add_int : Buffer.t -> int -> unit

val add_proposer_msg : Buffer.t -> proposer_msg -> unit

val add_response : Buffer.t -> response -> unit

val pp_proposer_msg : proposer_msg -> string

(** Ids carried by each payload, for the O(1)-ids-per-message accounting. *)
val proposer_msg_ids : proposer_msg -> int

val response_ids : response -> int
