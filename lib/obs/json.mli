(** A minimal JSON tree with a deterministic renderer and a strict parser.

    The observability layer must produce byte-identical output for identical
    runs (the determinism contract: same seed, same snapshot, same export
    bytes), so rendering is fully specified: no whitespace, object fields in
    the order given, floats printed with [%.12g], non-finite floats as
    [null]. The parser accepts exactly the JSON this module (and standard
    tools) produce; it exists so exports can be validated and round-tripped
    without adding a dependency.

    Large exports (the provenance DAG, critical-path edge lists, span
    traces) are built as [Seq] arrays, so their elements are produced,
    rendered and dropped one at a time instead of being held as one tree. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Seq of t Seq.t
      (** A lazily produced array. It renders byte for byte as the [List] of
          the elements it yields, and {!equal} compares it as that list. The
          parser never produces it. Rendering or comparing forces the
          sequence, so it must be persistent (yield the same elements each
          time it is forced, as [Seq.map] over an immutable source does):
          then it can be rendered any number of times with the same bytes. *)

(** [to_buffer buf t] appends [t]'s compact rendering (no spaces or
    newlines), deterministic in [t], to [buf]. The one renderer: every
    export goes through it. *)
val to_buffer : Buffer.t -> t -> unit

(** [to_string t] is the bytes {!to_buffer} appends, rendered in chunks of
    about 64 KiB (cut at array element boundaries) and concatenated once. *)
val to_string : t -> string

(** [to_channel oc t] writes those bytes to [oc] a chunk at a time. *)
val to_channel : out_channel -> t -> unit

(** [of_string s] parses one JSON value (surrounding whitespace allowed).
    Numbers follow the JSON grammar (no leading zeros); those without [.],
    [e] or [E] parse as [Int] (as [Float] if they overflow), others as
    [Float]. Strings must escape every byte below 0x20; a [\u] escape takes
    exactly four hex digits, and a UTF-16 surrogate pair decodes to one
    4-byte UTF-8 sequence (a lone surrogate is an error).
    @raise Failure ["Json.of_string: <reason> at offset <n>"] on malformed
    input. *)
val of_string : string -> t

(** [member key t] is the value of field [key] when [t] is an [Obj] that has
    it. *)
val member : string -> t -> t option

(** [equal a b] — structural equality, except [Int n] and [Float f] compare
    equal when [f = float_of_int n] (a renderer may legally print [3.0] as
    [3]), and a [Seq] compares as the [List] it yields. *)
val equal : t -> t -> bool
