type verdict = Dedup | Fresh | Revisit

(* Open addressing with linear probing; no deletion. Slot [i] is the pair
   [slots.(2i)] (key) and [slots.(2i+1)] (its mask). Masks are
   non-negative, so the mask word also tags the slot: [free] marks an
   empty slot (any int, 0 and [min_int] included, is a valid key), and
   [side] a key whose antichain lives in [antichains]. *)
type t = {
  mutable slots : int array;
  mutable count : int;
  antichains : (int, int list) Hashtbl.t;
}

let free = -1
let side = -2

let rec capacity_for n c = if c * 2 >= n * 3 then c else capacity_for n (c * 2)

let create n =
  {
    slots = Array.make (2 * capacity_for (max 1 n) 16) free;
    count = 0;
    antichains = Hashtbl.create 16;
  }

(* The slot where [key] lives or would be inserted. *)
let slot slots key =
  let mask = (Array.length slots / 2) - 1 in
  let rec probe i =
    if slots.((2 * i) + 1) = free || slots.(2 * i) = key then i
    else probe ((i + 1) land mask)
  in
  probe (key land mask)

let grow t =
  let old = t.slots in
  let slots = Array.make (2 * Array.length old) free in
  for i = 0 to (Array.length old / 2) - 1 do
    let m = old.((2 * i) + 1) in
    if m <> free then begin
      let j = slot slots old.(2 * i) in
      slots.(2 * j) <- old.(2 * i);
      slots.((2 * j) + 1) <- m
    end
  done;
  t.slots <- slots

let[@inline] subset a b = a land lnot b = 0

let visit t key sleep =
  if sleep < 0 then invalid_arg "Seen.visit: negative sleep mask";
  let slots = t.slots in
  let i = slot slots key in
  let m = slots.((2 * i) + 1) in
  if m = free then begin
    slots.(2 * i) <- key;
    slots.((2 * i) + 1) <- sleep;
    t.count <- t.count + 1;
    if t.count * 3 >= Array.length slots then grow t;
    Fresh
  end
  else if m <> side then
    if subset m sleep then Dedup
    else begin
      if subset sleep m then slots.((2 * i) + 1) <- sleep
      else begin
        Hashtbl.replace t.antichains key [ sleep; m ];
        slots.((2 * i) + 1) <- side
      end;
      Revisit
    end
  else
    let stored = Hashtbl.find t.antichains key in
    if List.exists (fun old -> subset old sleep) stored then Dedup
    else begin
      (match List.filter (fun old -> not (subset sleep old)) stored with
      | [] ->
          Hashtbl.remove t.antichains key;
          slots.((2 * i) + 1) <- sleep
      | kept -> Hashtbl.replace t.antichains key (sleep :: kept));
      Revisit
    end
