(** A proposition's respond-once / forward-once key: its (tag, proposer,
    instance) triple packed into one int, so [Smr]'s dedup tables hash an
    int instead of a tuple. The lease Prepare uses instance [-1]. Packed
    keys order as the triples do. *)

(** Raises [Invalid_argument] unless [0 <= tag < 2^22],
    [0 <= proposer < 2^10] and [-1 <= inst < 2^30 - 1]: past those bounds
    two triples would share a key. *)
val pack : tag:int -> proposer:int -> inst:int -> int

(** [unpack (pack ~tag ~proposer ~inst) = (tag, proposer, inst)]. *)
val unpack : int -> int * int * int
