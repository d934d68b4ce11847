type t = int

(* xxhash-style round over the native 63-bit int: the accumulator takes
   one xor, a rotation and one multiply per mixed word — [x * p2] is off
   the dependency chain, so the per-field latency is about half of a
   splitmix round. Avalanche quality comes from {!to_int}'s finalizer,
   which every consumer applies once per finished fold (the raw
   accumulator's low bits are NOT well mixed — a bare multiply barely
   stirs them). Constants fit the 63-bit int literal range (the canonical
   64-bit ones don't); multiplication wraps mod 2^63, which is fine. *)
let p1 = 0x2545F4914F6CDD1D
let p2 = 0x165667B19E3779F9

let empty = 0x1505 (* FNV-ish offset basis; any odd-ish constant works *)

let[@inline] int x acc =
  let h = acc lxor (x * p2) in
  let h = (h lsl 31) lor (h lsr 32) in
  h * p1

let[@inline] bool b acc = int (if b then 1 else 0) acc

let option f v acc =
  match v with None -> int 0x6f70 acc | Some x -> f x (int 0x736f acc)

let rec fold_elems f xs acc =
  match xs with [] -> acc | x :: rest -> fold_elems f rest (f x acc)

let list f xs acc = fold_elems f xs (int (List.length xs) acc)

let array f xs acc =
  let len = Array.length xs in
  let acc = ref (int len acc) in
  for i = 0 to len - 1 do
    acc := f (Array.unsafe_get xs i) !acc
  done;
  !acc

(* Splitmix-style finalizer: one per fold, so it can afford the full
   avalanche the per-field round skips. Consumers index tables with the
   low bits of the result, which this leaves uniformly mixed. *)
let to_int h =
  let h = h lxor (h lsr 29) in
  let h = h * p1 in
  let h = h lxor (h lsr 32) in
  h land max_int
