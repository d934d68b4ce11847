(* [Nil] is an immediate, so an empty slot costs nothing to hold. *)
type 'a cell = Nil | Cell of { value : 'a; mutable next : 'a cell }

(* Invariant: every ring entry's key k satisfies base <= k < base + size,
   so slot [k land mask] holds entries of the one key k. [base] only grows:
   it follows the popped keys. *)
type 'a t = {
  mask : int;
  heads : 'a cell array;
  tails : 'a cell array;
  mutable base : int;
  mutable near : int;  (* entries in the ring *)
  far : 'a Pqueue.t;
  mutable far_min : int;  (* least key in [far]; meaningless when empty *)
}

let create ~span =
  if span < 1 then invalid_arg "Bucket_queue.create: span must be >= 1";
  let rec pow2 size = if size >= span then size else pow2 (2 * size) in
  let size = pow2 1 in
  {
    mask = size - 1;
    heads = Array.make size Nil;
    tails = Array.make size Nil;
    base = 0;
    near = 0;
    far = Pqueue.create ();
    far_min = 0;
  }

let length q = q.near + Pqueue.length q.far

let is_empty q = length q = 0

let add q ~key value =
  if key >= q.base && key - q.base <= q.mask then begin
    let cell = Cell { value; next = Nil } in
    let slot = key land q.mask in
    (match q.tails.(slot) with
    | Nil -> q.heads.(slot) <- cell
    | Cell last -> last.next <- cell);
    q.tails.(slot) <- cell;
    q.near <- q.near + 1
  end
  else begin
    if Pqueue.is_empty q.far || key < q.far_min then q.far_min <- key;
    Pqueue.add q.far ~key value
  end

(* Every ring key is at least the popped one, so the window may start
   there. *)
let pop_far q =
  let ((key, _) as entry) = Pqueue.pop q.far in
  if not (Pqueue.is_empty q.far) then q.far_min <- fst (Pqueue.peek q.far);
  if key > q.base then q.base <- key;
  entry

let rec first_key q key =
  match q.heads.(key land q.mask) with
  | Nil -> first_key q (key + 1)
  | Cell _ -> key

let pop q =
  if q.near = 0 then
    if Pqueue.is_empty q.far then raise Not_found else pop_far q
  else
    let key = first_key q q.base in
    if (not (Pqueue.is_empty q.far)) && q.far_min <= key then pop_far q
    else
      let slot = key land q.mask in
      match q.heads.(slot) with
      | Nil -> assert false
      | Cell c ->
          (* Unlink the popped cell and drop the tail reference to it: a
             dead cell that still points at its successor, or that a slot
             still names, would keep them alive into the major heap. *)
          q.heads.(slot) <- c.next;
          (match c.next with
          | Nil -> q.tails.(slot) <- Nil
          | Cell _ -> c.next <- Nil);
          q.near <- q.near - 1;
          q.base <- key;
          (key, c.value)
