(* The routes live in one open-addressed table (linear probing, no
   deletion: a root once heard of stays known), keyed by root id rather
   than indexed by it because ids need not be dense (Node_id's [`Offset]
   and [`Shuffled] assignments). A root's record is two consecutive ints
   at its slot offset o: the root id, and one packed word of three
   21-bit fields,

     bits 42-62  dist, signed: |dist| < 2^20
     bits 21-41  the parent's index in [senders]: at most 2^21 parents
     bits  0-20  the root's queue stamp, 0 when it is not queued.

   A free slot's packed word is [free] (min_int), which would be dist
   -2^20 and so is never a record. A value that does not fit its field
   raises [Invalid_argument]; none wraps. Flat ints leave the GC no
   per-root block to trace, and a lookup usually touches one cache line.
   The table grows by half at three-quarters load: at n = 1000 roots it
   ends at 1369 slots rather than 2048, 16 bytes each, 21.9 bytes per
   root.

   Parents are indices because they are few: a search's sender is always
   a MAC neighbour, so [senders] (index -> id) stays at degree size.
   [parents] maps an id back to its index, as a table of the same kind
   with the index in place of the packed word.

   The queue is a ring of one-int entries, a record's offset and a stamp.
   An entry is live while its record carries the same stamp. Re-queuing
   restamps the record, which turns the old entry stale, and stale
   entries are skipped when they reach the front (lazy deletion). So
   re-queuing and pulling the preferred root forward are O(1) instead of
   a rewrite of the whole queue, and since an entry names its record,
   taking one needs no lookup. The ring is rebuilt from its live entries
   when it is full, when the table grows (offsets move) and before a
   stamp would leave its field; a rebuild renumbers the stamps 1, 2, ...,
   and an empty queue starts again from 1. *)

let bits = 21
let field = (1 lsl bits) - 1
let free = min_int
let dist p = p asr (2 * bits)
let parent_index p = (p lsr bits) land field
let stamp p = p land field
let unstamped p = p land lnot field

type t = {
  mutable routes : int array;
  mutable known : int;  (* occupied slots *)
  mutable ring : int array;
      (* entry i (0 = oldest) sits at (head + i) mod capacity, capacity a
         power of two *)
  mutable head : int;
  mutable len : int;  (* entries in the ring, stale ones included *)
  mutable last_stamp : int;
  mutable pending : int;  (* live entries *)
  mutable senders : int array;
  mutable nsenders : int;
  mutable parents : int array;
}

let hash root = (root * 0x2545F4914F6CDD1D) lsr 29

(* Top level, not local to [find]: a local closure would be allocated on
   every lookup. *)
let rec probe table key slots s =
  let o = 2 * s in
  if table.(o + 1) = free || table.(o) = key then o
  else probe table key slots (if s + 1 = slots then 0 else s + 1)

(* The offset of [key]'s pair in [table], or of the free slot it would
   take. *)
let find table key =
  let slots = Array.length table / 2 in
  probe table key slots (hash key mod slots)

(* Whether [table], holding [count] keys, must grow before one more: at
   three quarters load. It grows by half, not double, because every
   outgrown array is garbage. *)
let full table count = 4 * (count + 1) > 3 * (Array.length table / 2)

(* [old]'s pairs in a table half as large again. Each moved pair's key
   word in [old] is overwritten with its new offset, which is how the ring
   follows the records (see [rebuild]). *)
let grown old =
  let slots = Array.length old / 2 in
  let table = Array.make (2 * (slots + (slots / 2))) free in
  for s = 0 to slots - 1 do
    let o = 2 * s in
    if old.(o + 1) <> free then begin
      let o' = find table old.(o) in
      table.(o') <- old.(o);
      table.(o' + 1) <- old.(o + 1);
      old.(o) <- o'
    end
  done;
  table

(* [id]'s index in [senders], a new one when [id] is new. *)
let sender_index t id =
  let o = find t.parents id in
  if t.parents.(o + 1) <> free then t.parents.(o + 1)
  else begin
    let i = t.nsenders in
    if i > field then
      invalid_arg "Tree.improve: more than 2^21 distinct parents";
    if i = Array.length t.senders then
      t.senders <- Array.append t.senders t.senders;
    t.senders.(i) <- id;
    t.nsenders <- i + 1;
    let o =
      if full t.parents i then begin
        t.parents <- grown t.parents;
        find t.parents id
      end
      else o
    in
    t.parents.(o) <- id;
    t.parents.(o + 1) <- i;
    i
  end

(* Offsets of the occupied slots. *)
let occupied t =
  let r = t.routes in
  let offsets = Array.make t.known 0 in
  let k = ref 0 in
  for s = 0 to (Array.length r / 2) - 1 do
    if r.((2 * s) + 1) <> free then begin
      offsets.(!k) <- 2 * s;
      incr k
    end
  done;
  offsets

let capacity t = Array.length t.ring

let index t i = (t.head + i) land (capacity t - 1)

(* Whether ring entry [e] is its record's live one in [table]. *)
let live table e = stamp table.((e lsr bits) + 1) = stamp e

(* Rebuilds the ring into [cap] entries from its live ones, in order, and
   restamps them 1, 2, ... . [old] is the table the entries point into:
   [t.routes], or the table it outgrew, whose root words [grown] has
   overwritten with each record's new offset. Restamping in place is
   safe because a root's live entry is the last of its entries. *)
let rebuild t old cap =
  let ring = Array.make cap 0 in
  let k = ref 0 in
  for i = 0 to t.len - 1 do
    let e = t.ring.(index t i) in
    if live old e then begin
      let o = e lsr bits in
      let o = if old == t.routes then o else old.(o) in
      ring.(!k) <- (o lsl bits) lor (!k + 1);
      incr k;
      t.routes.(o + 1) <- unstamped t.routes.(o + 1) lor !k
    end
  done;
  t.ring <- ring;
  t.head <- 0;
  t.len <- !k;
  t.last_stamp <- !k

(* A new root's record at [o], the free slot [find] gave. A record keeps
   a stamp below [field] only while fewer than [field] roots are known. *)
let add t root o =
  if t.known = field then invalid_arg "Tree.improve: more than 2^21 - 1 roots";
  let o =
    if full t.routes t.known then begin
      let old = t.routes in
      t.routes <- grown old;
      rebuild t old (capacity t);
      find t.routes root
    end
    else o
  in
  t.routes.(o) <- root;
  t.known <- t.known + 1;
  o

(* A full ring doubles only when live entries fill half of it, so stale
   entries never make it grow. *)
let enqueue t o =
  let p = t.routes.(o + 1) in
  if stamp p = 0 then t.pending <- t.pending + 1
  else t.routes.(o + 1) <- unstamped p;
  let cap = capacity t in
  if t.len = cap then
    rebuild t t.routes (if 2 * t.pending >= cap then 2 * cap else cap)
  else if t.last_stamp = field then rebuild t t.routes cap;
  t.last_stamp <- t.last_stamp + 1;
  t.routes.(o + 1) <- t.routes.(o + 1) lor t.last_stamp;
  t.ring.(index t t.len) <- (o lsl bits) lor t.last_stamp;
  t.len <- t.len + 1

let improve t ~root ~hops ~sender =
  let o = find t.routes root in
  let p = t.routes.(o + 1) in
  if p <> free && hops >= dist p then false
  else begin
    if hops <= -(1 lsl (bits - 1)) || hops >= 1 lsl (bits - 1) then
      invalid_arg "Tree.improve: hops outside (-2^20, 2^20)";
    let parent = sender_index t sender in
    let o = if p = free then add t root o else o in
    t.routes.(o + 1) <-
      (hops lsl (2 * bits)) lor (parent lsl bits)
      lor (if p = free then 0 else stamp p);
    enqueue t o;
    true
  end

let create ~me =
  let t =
    {
      routes = Array.make (2 * 16) free;
      known = 0;
      ring = Array.make 8 0;
      head = 0;
      len = 0;
      last_stamp = 0;
      pending = 0;
      senders = Array.make 8 0;
      nsenders = 0;
      parents = Array.make (2 * 8) free;
    }
  in
  ignore (improve t ~root:me ~hops:0 ~sender:me);
  t

let readvertise t ~root =
  let o = find t.routes root in
  if t.routes.(o + 1) <> free then enqueue t o

(* Removes the oldest live entry and returns its record's offset. *)
let rec dequeue_oldest t =
  let e = t.ring.(t.head) in
  t.head <- (t.head + 1) land (capacity t - 1);
  t.len <- t.len - 1;
  if live t.routes e then e lsr bits else dequeue_oldest t

let pop t ~prefer =
  if t.pending = 0 then None
  else begin
    let o =
      match prefer with
      | Some root ->
          let o = find t.routes root in
          if stamp t.routes.(o + 1) <> 0 then o else dequeue_oldest t
      | None -> dequeue_oldest t
    in
    let p = t.routes.(o + 1) in
    t.routes.(o + 1) <- unstamped p;
    t.pending <- t.pending - 1;
    (* Whatever the ring still holds is stale. *)
    if t.pending = 0 then begin
      t.head <- 0;
      t.len <- 0;
      t.last_stamp <- 0
    end;
    Some (t.routes.(o), dist p + 1)
  end

let parent t root =
  let p = t.routes.(find t.routes root + 1) in
  if p = free then None else Some t.senders.(parent_index p)

let pending t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    let e = t.ring.(index t i) in
    if live t.routes e then begin
      let o = e lsr bits in
      acc := (t.routes.(o), dist t.routes.(o + 1) + 1) :: !acc
    end
  done;
  !acc

module F = Amac.Fingerprint

(* Parent ids, never their indices or the stamps: those record the
   history of pushes, not the state. *)
let fingerprint t acc =
  let r = t.routes in
  let offsets = occupied t in
  Array.sort (fun a b -> Int.compare r.(a) r.(b)) offsets;
  acc
  |> F.array (fun o acc -> acc |> F.int r.(o) |> F.int (dist r.(o + 1))) offsets
  |> F.array
       (fun o acc ->
         acc |> F.int r.(o) |> F.int t.senders.(parent_index r.(o + 1)))
       offsets
  |> F.list
       (fun (root, hops) acc -> acc |> F.int root |> F.int hops)
       (pending t)

let clone t =
  {
    t with
    routes = Array.copy t.routes;
    ring = Array.copy t.ring;
    senders = Array.copy t.senders;
    parents = Array.copy t.parents;
  }
