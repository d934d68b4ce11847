type 'a entry = { key : int; seq : int; value : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }

let length q = q.size

let is_empty q = q.size = 0

(* [before a b] orders by key first, then by insertion sequence so that
   equal-priority events dequeue deterministically in FIFO order. *)
let before a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

(* One growth path for every add: the incoming entry doubles as the fill
   value, so the empty heap needs no dummy (the old code read [q.heap.(0)]
   and had to special-case length 0). *)
let grow_if_full q filler =
  if q.size = Array.length q.heap then begin
    let heap = Array.make (max 16 (2 * Array.length q.heap)) filler in
    Array.blit q.heap 0 heap 0 q.size;
    q.heap <- heap
  end

let add q ~key value =
  let entry = { key; seq = q.next_seq; value } in
  q.next_seq <- q.next_seq + 1;
  grow_if_full q entry;
  q.heap.(q.size) <- entry;
  q.size <- q.size + 1;
  (* Sift the new entry up to its place. *)
  let rec up i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if before q.heap.(i) q.heap.(parent) then begin
        let tmp = q.heap.(i) in
        q.heap.(i) <- q.heap.(parent);
        q.heap.(parent) <- tmp;
        up parent
      end
    end
  in
  up (q.size - 1)

(* Remove the minimum entry and return it: {!pop} pairs its key and value,
   {!pop_min} returns the value alone. *)
let take q =
  if q.size = 0 then raise Not_found;
  let top = q.heap.(0) in
  q.size <- q.size - 1;
  if q.size > 0 then begin
    q.heap.(0) <- q.heap.(q.size);
    (* Sift the moved entry down to restore the heap property. *)
    let rec down i =
      let left = (2 * i) + 1 and right = (2 * i) + 2 in
      let smallest = ref i in
      if left < q.size && before q.heap.(left) q.heap.(!smallest) then
        smallest := left;
      if right < q.size && before q.heap.(right) q.heap.(!smallest) then
        smallest := right;
      if !smallest <> i then begin
        let tmp = q.heap.(i) in
        q.heap.(i) <- q.heap.(!smallest);
        q.heap.(!smallest) <- tmp;
        down !smallest
      end
    in
    down 0
  end;
  top

let pop q =
  let top = take q in
  (top.key, top.value)

let pop_min q = (take q).value

let min_key q =
  if q.size = 0 then raise Not_found;
  q.heap.(0).key

let clear q = q.size <- 0

(* Pre-size the backing array so a reused queue (cleared between runs or
   between per-group transport rounds) never regrows through the doubling
   path. [dummy] only fills slots beyond [size]; it is never returned. *)
let ensure_capacity q capacity ~dummy =
  if capacity > Array.length q.heap then begin
    let filler = { key = 0; seq = 0; value = dummy } in
    let heap = Array.make capacity filler in
    Array.blit q.heap 0 heap 0 q.size;
    q.heap <- heap
  end

let of_list entries =
  let q = create () in
  List.iter (fun (key, value) -> add q ~key value) entries;
  q

let to_list q =
  let rec collect i acc =
    if i < 0 then acc
    else collect (i - 1) ((q.heap.(i).key, q.heap.(i).value) :: acc)
  in
  collect (q.size - 1) []
