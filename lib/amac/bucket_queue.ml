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
  far : int Pqueue.t;
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
      far = Pqueue.create ();
      key = 0;
    }
  in
  thread_free q 0;
  q

let length q = q.near + Pqueue.length q.far

let is_empty q = length q = 0

let popped_key q = q.key

let cells q = Array.length q.next

(* Every cell is in use: double the pool and free the new half. *)
let grow q =
  let old = Array.length q.next in
  let extend a = Array.append a (Array.make old 0) in
  q.value <- extend q.value;
  q.next <- extend q.next;
  thread_free q old

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
  else Pqueue.add q.far ~key v

(* Every ring key is at least the popped one, so the window may start
   there. *)
let pop_far q =
  let key = Pqueue.min_key q.far in
  if key > q.base then q.base <- key;
  q.key <- key;
  Pqueue.pop_min q.far

let rec first_key q key =
  if q.heads.(key land q.mask) = nil then first_key q (key + 1) else key

let pop q =
  if q.near = 0 then
    if Pqueue.is_empty q.far then raise Not_found else pop_far q
  else
    let key = first_key q q.base in
    if (not (Pqueue.is_empty q.far)) && Pqueue.min_key q.far <= key then
      pop_far q
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
