(* A cell is an index into [value]/[next]; -1 is the empty link. A free
   cell's [next] threads the free list. *)
let nil = -1

(* Invariant: every ring entry's key k satisfies base <= k < base + size,
   so slot [k land mask] holds entries of the one key k. [base] only grows:
   it follows the popped keys. *)
type t = {
  mask : int;
  heads : int array;
  tails : int array;
  mutable value : int array;
  mutable next : int array;
  mutable free : int;  (* first free cell, or [nil] *)
  mutable base : int;
  mutable near : int;  (* entries in the ring *)
  (* The overflow: a binary min-heap of (key, seq, value) triples kept in
     three parallel arrays, ordered by key and then by insertion [seq]. *)
  mutable far_key : int array;
  mutable far_seq : int array;
  mutable far_val : int array;
  mutable far : int;  (* entries in the overflow *)
  mutable far_next : int;  (* the next insertion's seq *)
  mutable key : int;  (* key of the last pop *)
}

(* Cells [from .. Array.length next - 1] become the free list, in order. *)
let thread_free q from =
  let last = Array.length q.next - 1 in
  for c = from to last - 1 do
    q.next.(c) <- c + 1
  done;
  q.next.(last) <- q.free;
  q.free <- from

let create ~span =
  if span < 1 then invalid_arg "Bucket_queue.create: span must be >= 1";
  let rec pow2 size = if size >= span then size else pow2 (2 * size) in
  let size = pow2 1 in
  let q =
    {
      mask = size - 1;
      heads = Array.make size nil;
      tails = Array.make size nil;
      value = Array.make size 0;
      next = Array.make size nil;
      free = nil;
      base = 0;
      near = 0;
      far_key = [||];
      far_seq = [||];
      far_val = [||];
      far = 0;
      far_next = 0;
      key = 0;
    }
  in
  thread_free q 0;
  q

let length q = q.near + q.far

let is_empty q = length q = 0

let popped_key q = q.key

let cells q = Array.length q.next

let extend a by = Array.append a (Array.make by 0)

(* Every cell is in use: double the pool and free the new half. *)
let grow q =
  let old = Array.length q.next in
  q.value <- extend q.value old;
  q.next <- extend q.next old;
  thread_free q old

(* [before q i k s]: overflow slot [i] pops before an entry keyed [k]
   whose seq is [s]. Seqs are unique, so this is a total order. *)
let before q i k s =
  q.far_key.(i) < k || (q.far_key.(i) = k && q.far_seq.(i) < s)

let set q i k s v =
  q.far_key.(i) <- k;
  q.far_seq.(i) <- s;
  q.far_val.(i) <- v

let move q src dst = set q dst q.far_key.(src) q.far_seq.(src) q.far_val.(src)

(* The sifts are top-level so that they close over nothing: an overflow
   add or pop allocates no closure. [sift_up] moves parents that pop after
   the entry down a level; [sift_down] moves children of an [n]-entry heap
   that pop before it up a level; each then stores the entry where it
   stopped. *)
let rec sift_up q i k s v =
  let parent = (i - 1) / 2 in
  if i > 0 && not (before q parent k s) then begin
    move q parent i;
    sift_up q parent k s v
  end
  else set q i k s v

let rec sift_down q n i k s v =
  let l = (2 * i) + 1 in
  let c =
    if l + 1 < n && before q (l + 1) q.far_key.(l) q.far_seq.(l) then l + 1
    else l
  in
  if l < n && before q c k s then begin
    move q c i;
    sift_down q n c k s v
  end
  else set q i k s v

let add_far q ~key v =
  let n = q.far in
  if n = Array.length q.far_key then begin
    let by = max 16 n in
    q.far_key <- extend q.far_key by;
    q.far_seq <- extend q.far_seq by;
    q.far_val <- extend q.far_val by
  end;
  let s = q.far_next in
  q.far_next <- s + 1;
  q.far <- n + 1;
  sift_up q n key s v

let add q ~key v =
  if key >= q.base && key - q.base <= q.mask then begin
    if q.free = nil then grow q;
    let cell = q.free in
    q.free <- q.next.(cell);
    q.value.(cell) <- v;
    q.next.(cell) <- nil;
    let slot = key land q.mask in
    let last = q.tails.(slot) in
    if last = nil then q.heads.(slot) <- cell else q.next.(last) <- cell;
    q.tails.(slot) <- cell;
    q.near <- q.near + 1
  end
  else add_far q ~key v

(* Every ring key is at least the popped one, so the window may start
   there. *)
let pop_far q =
  let key = q.far_key.(0) in
  if key > q.base then q.base <- key;
  q.key <- key;
  let v = q.far_val.(0) in
  let n = q.far - 1 in
  q.far <- n;
  (* The last entry fills the root's place. *)
  sift_down q n 0 q.far_key.(n) q.far_seq.(n) q.far_val.(n);
  v

let rec first_key q key =
  if q.heads.(key land q.mask) = nil then first_key q (key + 1) else key

let pop q =
  if q.near = 0 then
    if q.far = 0 then raise Not_found else pop_far q
  else
    let key = first_key q q.base in
    if q.far > 0 && q.far_key.(0) <= key then pop_far q
    else begin
      let slot = key land q.mask in
      let cell = q.heads.(slot) in
      let after = q.next.(cell) in
      q.heads.(slot) <- after;
      if after = nil then q.tails.(slot) <- nil;
      q.next.(cell) <- q.free;
      q.free <- cell;
      q.near <- q.near - 1;
      q.base <- key;
      q.key <- key;
      q.value.(cell)
    end
