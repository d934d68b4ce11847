type verdict = Dedup | Fresh | Revisit

(* Extendible hashing over fixed-size pages of [Bytes]. A page is a
   16-byte header (its key count, then its local depth) and
   [page_slots] slots. A slot is a [width]-byte field followed by an
   8-byte key. The field tags the slot: [free] (0, so a cleared page is
   all free), [side] for a key whose antichain lives in [antichains], or
   the key's single mask plus 2. A mask below [2^bits] plus 2 fits in
   [bits + 1] bits, so [width] is [(bits + 8) / 8] bytes; at [width = 8]
   the sum may wrap past [max_int], and [- 2] on the way back wraps it
   home. The field is read by one 8-byte load at the slot's start (its
   upper bytes are the key's and are masked off), and written by an
   8-byte store that the key's store then overwrites, so a field is
   always written together with its key.

   [dir] is indexed by the low [global] bits of the mixed key. A page of
   local depth [d] holds the keys whose mixed value agrees in the low [d]
   bits, probed linearly from the value's top bits. A page that reaches
   [max_fill] keys is split: its slots are copied to [scratch], cleared,
   and re-inserted into it and one new page by bit [d]. *)
type t = {
  bits : int;
  width : int;
  slot : int;
  field_mask : int;
  mutable dir : Bytes.t array;
  mutable global : int;
  scratch : Bytes.t;
  antichains : (int, int list) Hashtbl.t;
}

let free = 0
let side = 1
let header = 16
let page_bits = 10
let page_slots = 1 lsl page_bits
let max_fill = page_slots * 3 / 4
let max_bits = 62

(* Unchecked: every access below is 8 bytes at a slot's start or at its
   key ([width] bytes in), or at the header's two words, so it stays
   inside its page (or [scratch], which holds one page's slots). A bounds
   check would read the [Bytes] header, one more cache line per probe. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* Little-endian, so the field sits in the low bytes of a load at the
   slot's start on any host. *)
let[@inline] load b off =
  let v = get64 b off in
  Int64.to_int (if Sys.big_endian then swap64 v else v)

let[@inline] save b off x =
  let v = Int64.of_int x in
  set64 b off (if Sys.big_endian then swap64 v else v)

let[@inline] field t b off = load b off land t.field_mask
let[@inline] key_at t b off = load b (off + t.width)

let[@inline] store t b off key field =
  save b off field;
  save b (off + t.width) key

let[@inline] count page = load page 0
let[@inline] depth page = load page 8

(* A bijection on 63-bit ints (splitmix64's finalizer with the constants'
   top bits cleared): dense Marshal ids and structured fingerprints alike
   spread over both the low (directory) and top (in-page) bits. *)
let[@inline] mix k =
  let k = (k lxor (k lsr 30)) * 0x3F58476D1CE4E5B9 in
  let k = (k lxor (k lsr 27)) * 0x14D049BB133111EB in
  k lxor (k lsr 31)

let[@inline] home h = h lsr (63 - page_bits)

let new_page t depth =
  let page = Bytes.make (header + (page_slots * t.slot)) '\000' in
  save page 8 depth;
  page

let create bits =
  if bits < 0 || bits > max_bits then
    invalid_arg
      (Printf.sprintf "Seen.create: %d mask bits (0..%d)" bits max_bits);
  let width = (bits + 8) / 8 in
  let slot = width + 8 in
  let t =
    {
      bits;
      width;
      slot;
      field_mask = (if width = 8 then -1 else (1 lsl (8 * width)) - 1);
      dir = [||];
      global = 0;
      scratch = Bytes.create (page_slots * slot);
      antichains = Hashtbl.create 16;
    }
  in
  t.dir <- [| new_page t 0 |];
  t

(* The offset of [key]'s slot in [page], or of the free slot where it
   would go, probing from slot [i]. A page is never full, so this ends. *)
let rec find t page key i =
  let off = header + (i * t.slot) in
  if field t page off = free || key_at t page off = key then off
  else find t page key ((i + 1) land (page_slots - 1))

(* Split [page], reached through directory index [index]: the keys whose
   mixed value has bit [d] set move to a new page, which takes over every
   directory entry of [page] with that bit set. *)
let split t page index =
  let d = depth page in
  if d = t.global then begin
    let old = t.dir in
    let len = Array.length old in
    t.dir <- Array.init (2 * len) (fun i -> old.(i land (len - 1)));
    t.global <- t.global + 1
  end;
  let upper = new_page t (d + 1) in
  save page 8 (d + 1);
  let i = ref ((index land ((1 lsl d) - 1)) lor (1 lsl d)) in
  while !i < Array.length t.dir do
    t.dir.(!i) <- upper;
    i := !i + (2 lsl d)
  done;
  let slots = page_slots * t.slot in
  Bytes.blit page header t.scratch 0 slots;
  Bytes.fill page header slots '\000';
  save page 0 0;
  for i = 0 to page_slots - 1 do
    let off = i * t.slot in
    let f = field t t.scratch off in
    if f <> free then begin
      let key = key_at t t.scratch off in
      let h = mix key in
      let target = if h land (1 lsl d) = 0 then page else upper in
      store t target (find t target key (home h)) key f;
      save target 0 (count target + 1)
    end
  done

let[@inline] subset a b = a land lnot b = 0

let rec visit_mixed t key sleep h =
  let index = h land ((1 lsl t.global) - 1) in
  let page = t.dir.(index) in
  let off = find t page key (home h) in
  let f = field t page off in
  if f = free then
    if count page >= max_fill then begin
      split t page index;
      visit_mixed t key sleep h
    end
    else begin
      store t page off key (sleep + 2);
      save page 0 (count page + 1);
      Fresh
    end
  else if f <> side then
    let m = f - 2 in
    if subset m sleep then Dedup
    else begin
      if subset sleep m then store t page off key (sleep + 2)
      else begin
        Hashtbl.replace t.antichains key [ sleep; m ];
        store t page off key side
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
          store t page off key (sleep + 2)
      | kept -> Hashtbl.replace t.antichains key (sleep :: kept));
      Revisit
    end

let visit t key sleep =
  if sleep < 0 then invalid_arg "Seen.visit: negative sleep mask";
  if sleep lsr t.bits <> 0 then
    invalid_arg "Seen.visit: sleep mask wider than the table's bits";
  visit_mixed t key sleep (mix key)
