(* Every node the detector knows of has one slot of three ints in [slots]:
   its id, the largest heartbeat seen from it (-1: never heard), and the
   heartbeat it stalled at when suspected (-1: not suspected). The table is
   open-addressed with linear probing, doubles at 3/4 load and never
   shrinks. A slot with both ints at -1 is free: a known node never gets
   there, since a heartbeat is recorded only when it is at least 0, it
   never decreases, and a stamp is removed only when the heartbeat passes
   it. *)
type t = {
  me : int;
  patience : int;
  mutable my_hb : int;
  mutable slots : int array;
  mutable known : int;  (* slots in use *)
  mutable suspected_now : int;  (* slots with a stamp *)
  mutable watched : int;
  mutable silence : int;
}

type verdict = Fresh | Fresh_cleared | Stale

type tick_verdict = Ok | Suspect

type stats = {
  suspected_now : int;
  watched : int;
  silence : int;
  patience_now : int;
}

let width = 3

let unset = -1

let capacity t = Array.length t.slots / width

let[@inline] is_free slots i = slots.(i + 1) = unset && slots.(i + 2) = unset

let rec probe slots id mask s =
  let i = s * width in
  if is_free slots i || slots.(i) = id then i
  else probe slots id mask ((s + 1) land mask)

(* The first word of [id]'s slot, or of the free slot where it would go. *)
let locate slots id =
  let mask = (Array.length slots / width) - 1 in
  let h = id * 0x165667B19E3779F9 in
  probe slots id mask ((h lxor (h lsr 29)) land mask)

let make_slots capacity = Array.make (capacity * width) unset

let grow t =
  let old = t.slots in
  let slots = make_slots (2 * capacity t) in
  for s = 0 to (Array.length old / width) - 1 do
    let i = s * width in
    if not (is_free old i) then begin
      let j = locate slots old.(i) in
      slots.(j) <- old.(i);
      slots.(j + 1) <- old.(i + 1);
      slots.(j + 2) <- old.(i + 2)
    end
  done;
  t.slots <- slots

(* The first word of [id]'s slot, claimed if [id] was unknown; the caller
   sets its heartbeat or its stamp. *)
let slot t id =
  let i = locate t.slots id in
  if not (is_free t.slots i) then i
  else begin
    let i =
      if 4 * (t.known + 1) <= 3 * capacity t then i
      else begin
        grow t;
        locate t.slots id
      end
    in
    t.slots.(i) <- id;
    t.known <- t.known + 1;
    i
  end

(* [id]'s largest heartbeat seen and its stamp, [unset] when unknown. *)
let seen t id =
  let i = locate t.slots id in
  t.slots.(i + 1)

let stamp t id =
  let i = locate t.slots id in
  t.slots.(i + 2)

let create ~patience ~me () =
  if patience < 1 then invalid_arg "Fd.create: patience must be >= 1";
  let t =
    {
      me;
      patience;
      my_hb = 0;
      slots = make_slots 8;
      known = 0;
      suspected_now = 0;
      watched = me;
      silence = 0;
    }
  in
  t.slots.(slot t me + 1) <- 0;
  t

let beat t =
  t.my_hb <- t.my_hb + 1;
  t.slots.(slot t t.me + 1) <- t.my_hb;
  t.my_hb

let hb t id = max 0 (seen t id)

let suspected t id = stamp t id <> unset

let observe t ~peer ~hb =
  if hb > seen t peer then begin
    let i = slot t peer in
    t.slots.(i + 1) <- hb;
    if peer = t.watched then t.silence <- 0;
    let at = t.slots.(i + 2) in
    if at <> unset && hb > at then begin
      (* The heartbeat advanced past the suspicion stamp: the peer was
         alive after all (e.g. a loss window ate its traffic). *)
      t.slots.(i + 2) <- unset;
      t.suspected_now <- t.suspected_now - 1;
      Fresh_cleared
    end
    else Fresh
  end
  else Stale

let watch (t : t) ~peer =
  t.watched <- peer;
  t.silence <- 0

let tick (t : t) ~peer =
  if peer <> t.watched then watch t ~peer;
  t.silence <- t.silence + 1;
  if t.silence > t.patience && not (suspected t peer) then begin
    let at = hb t peer in
    t.slots.(slot t peer + 2) <- at;
    t.suspected_now <- t.suspected_now + 1;
    Suspect
  end
  else Ok

(* The ids whose slot has word [field] set, sorted. *)
let ids_with t field =
  let ids = ref [] in
  for s = capacity t - 1 downto 0 do
    let i = s * width in
    if t.slots.(i + field) <> unset then ids := t.slots.(i) :: !ids
  done;
  List.sort Int.compare !ids

let candidate t ~base ~eligible =
  let best = ref base in
  for s = 0 to capacity t - 1 do
    let i = s * width in
    let id = t.slots.(i) in
    if
      t.slots.(i + 1) <> unset
      && t.slots.(i + 2) = unset
      && id > !best && eligible id
    then best := id
  done;
  !best

let stats (t : t) =
  {
    suspected_now = t.suspected_now;
    watched = t.watched;
    silence = t.silence;
    patience_now = t.patience;
  }

module F = Amac.Fingerprint

(* The ids with word [field] set and their values, as a list sorted by
   id: equal detectors fingerprint alike whatever their table layout. *)
let fp_field t field acc =
  F.list
    (fun id acc ->
      let i = locate t.slots id in
      acc |> F.int id |> F.int t.slots.(i + field))
    (ids_with t field) acc

let fingerprint t acc =
  acc |> F.int t.my_hb |> fp_field t 1 |> fp_field t 2 |> F.int t.watched
  |> F.int t.silence |> F.int t.patience

let clone t = { t with slots = Array.copy t.slots }
