(* The routes live in one open-addressed table (linear probing, no
   deletion: a root once heard of stays known), keyed by root id rather
   than indexed by it because ids need not be dense (Node_id's [`Offset]
   and [`Shuffled] assignments). A root's record is four consecutive ints
   at its slot offset o: root, dist, parent, seq. Flat ints leave the GC
   no per-root block to trace, and a lookup usually touches one cache
   line where a [Hashtbl] of records touches three.

   [seq] stamps the root's live queue entry (-1 = not queued; [free]
   marks an empty slot). Re-queuing restamps the record, which turns the
   old entry stale, and stale entries are skipped when they reach the
   front (lazy deletion). So re-queuing and pulling the preferred root
   forward are O(1) instead of a rewrite of the whole queue. *)
let free = min_int

type t = {
  mutable routes : int array;
  mutable known : int;  (* occupied slots *)
  mutable ring : int array;
      (* queue entries as (seq, root) pairs; entry i (0 = oldest) sits at
         pair slot (head + i) mod capacity, capacity a power of two *)
  mutable head : int;
  mutable len : int;  (* entries in the ring, stale ones included *)
  mutable next_seq : int;
  mutable pending : int;  (* live entries *)
}

let hash root = (root * 0x2545F4914F6CDD1D) lsr 29

(* Top level, not local to [find]: a local closure would be allocated on
   every lookup. *)
let rec probe routes root slots s =
  let o = 4 * s in
  if routes.(o + 3) = free || routes.(o) = root then o
  else probe routes root slots (if s + 1 = slots then 0 else s + 1)

(* The offset of [root]'s record, or of the free slot it would take. *)
let find routes root =
  let slots = Array.length routes / 4 in
  probe routes root slots (hash root mod slots)

(* Offsets of the occupied slots. *)
let occupied t =
  let r = t.routes in
  let offsets = Array.make t.known 0 in
  let k = ref 0 in
  for s = 0 to (Array.length r / 4) - 1 do
    if r.((4 * s) + 3) <> free then begin
      offsets.(!k) <- 4 * s;
      incr k
    end
  done;
  offsets

(* A new root's record. The table grows by half, not double, once three
   quarters of its slots are taken: at n = 1000 roots it ends at 1369
   slots instead of 2048, and every outgrown array is garbage. *)
let add t root =
  let slots = Array.length t.routes / 4 in
  if 4 * (t.known + 1) > 3 * slots then begin
    let old = t.routes and offsets = occupied t in
    t.routes <- Array.make (4 * (slots + (slots / 2))) free;
    Array.iter
      (fun o -> Array.blit old o t.routes (find t.routes old.(o)) 4)
      offsets
  end;
  let o = find t.routes root in
  t.routes.(o) <- root;
  t.routes.(o + 3) <- -1;
  t.known <- t.known + 1;
  o

let capacity t = Array.length t.ring / 2

let slot t i = 2 * ((t.head + i) land (capacity t - 1))

let live t j = t.routes.(find t.routes t.ring.(j + 1) + 3) = t.ring.(j)

(* A full ring is rebuilt from its live entries, in order; its capacity
   doubles only when they fill half of it, so stale entries never make the
   ring grow. *)
let compact t =
  let cap = capacity t in
  let ring =
    Array.make (if 2 * t.pending >= cap then 4 * cap else 2 * cap) 0
  in
  let k = ref 0 in
  for i = 0 to t.len - 1 do
    let j = slot t i in
    if live t j then begin
      ring.(2 * !k) <- t.ring.(j);
      ring.((2 * !k) + 1) <- t.ring.(j + 1);
      incr k
    end
  done;
  t.ring <- ring;
  t.head <- 0;
  t.len <- !k

let enqueue t root o =
  if t.routes.(o + 3) < 0 then t.pending <- t.pending + 1;
  t.routes.(o + 3) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  if t.len = capacity t then compact t;
  let j = slot t t.len in
  t.ring.(j) <- t.routes.(o + 3);
  t.ring.(j + 1) <- root;
  t.len <- t.len + 1

let improve t ~root ~hops ~sender =
  let o = find t.routes root in
  if t.routes.(o + 3) <> free && hops >= t.routes.(o + 1) then false
  else begin
    let o = if t.routes.(o + 3) = free then add t root else o in
    t.routes.(o + 1) <- hops;
    t.routes.(o + 2) <- sender;
    enqueue t root o;
    true
  end

let create ~me =
  let t =
    {
      routes = Array.make (4 * 16) free;
      known = 0;
      ring = Array.make 16 0;
      head = 0;
      len = 0;
      next_seq = 0;
      pending = 0;
    }
  in
  ignore (improve t ~root:me ~hops:0 ~sender:me);
  t

let readvertise t ~root =
  let o = find t.routes root in
  if t.routes.(o + 3) <> free then enqueue t root o

(* Removes the oldest live entry and returns its root. *)
let rec dequeue_oldest t =
  let j = slot t 0 in
  t.head <- (t.head + 1) land (capacity t - 1);
  t.len <- t.len - 1;
  if live t j then t.ring.(j + 1) else dequeue_oldest t

let pop t ~prefer =
  if t.pending = 0 then None
  else begin
    let root =
      match prefer with
      | Some p when t.routes.(find t.routes p + 3) >= 0 -> p
      | Some _ | None -> dequeue_oldest t
    in
    let o = find t.routes root in
    t.routes.(o + 3) <- -1;
    t.pending <- t.pending - 1;
    (* Whatever the ring still holds is stale. *)
    if t.pending = 0 then begin
      t.head <- 0;
      t.len <- 0
    end;
    Some (root, t.routes.(o + 1) + 1)
  end

let parent t root =
  let o = find t.routes root in
  if t.routes.(o + 3) = free then None else Some t.routes.(o + 2)

let pending t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    let j = slot t i in
    if live t j then begin
      let root = t.ring.(j + 1) in
      acc := (root, t.routes.(find t.routes root + 1) + 1) :: !acc
    end
  done;
  !acc

module F = Amac.Fingerprint

(* Never the seq stamps: they record the push history, not the state. *)
let fingerprint t acc =
  let r = t.routes in
  let offsets = occupied t in
  Array.sort (fun a b -> Int.compare r.(a) r.(b)) offsets;
  acc
  |> F.array (fun o acc -> acc |> F.int r.(o) |> F.int r.(o + 1)) offsets
  |> F.array (fun o acc -> acc |> F.int r.(o) |> F.int r.(o + 2)) offsets
  |> F.list
       (fun (root, hops) acc -> acc |> F.int root |> F.int hops)
       (pending t)

let clone t = { t with routes = Array.copy t.routes; ring = Array.copy t.ring }
