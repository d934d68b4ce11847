type msg = { sender : int; c : int; v : int }

type state = {
  me : int;
  margin : int;
  mutable c : int;
  mutable v : int;
  max_seen : int array;  (* per value in {0,1}; -1 = never seen *)
  mutable inflight : (int * int) option;  (* (c, v) when the broadcast left *)
  mutable decision : int option;
  mutable announced : bool;
}

let maybe_decide st =
  if st.decision = None && st.c >= st.max_seen.(1 - st.v) + st.margin then
    st.decision <- Some st.v

let broadcast st =
  st.inflight <- Some (st.c, st.v);
  [ Amac.Algorithm.Broadcast { sender = st.me; c = st.c; v = st.v } ]

let announce st =
  match st.decision with
  | Some v when not st.announced ->
      st.announced <- true;
      [ Amac.Algorithm.Decide v ]
  | Some _ | None -> []

let init ~margin (ctx : Amac.Algorithm.ctx) =
  if ctx.input <> 0 && ctx.input <> 1 then
    invalid_arg "Counter_race: binary inputs only";
  let me = Amac.Node_id.unique_exn ctx.id in
  let st =
    {
      me;
      margin;
      c = 0;
      v = ctx.input;
      max_seen = [| -1; -1 |];
      inflight = None;
      decision = None;
      announced = false;
    }
  in
  st.max_seen.(st.v) <- 0;
  maybe_decide st;
  (st, announce st @ broadcast st)

let on_receive _ctx st { sender = _; c; v } =
  st.max_seen.(v) <- max st.max_seen.(v) c;
  (* Lexicographic adoption: a strictly larger (counter, value) pair wins.
     The value tiebreak makes concurrent same-counter proposals converge. *)
  if c > st.c || (c = st.c && v > st.v) then begin
    st.c <- c;
    st.v <- v
  end;
  maybe_decide st;
  announce st

let on_ack _ctx st =
  (* The race step: an ack means every neighbor now holds our pair (the
     abstract MAC guarantee); if nothing overtook it mid-flight, our pair
     is the local maximum and the counter advances. *)
  (match st.inflight with
  | Some (c0, v0) when c0 = st.c && v0 = st.v ->
      st.c <- st.c + 1;
      st.max_seen.(st.v) <- max st.max_seen.(st.v) st.c
  | Some _ | None -> ());
  maybe_decide st;
  (* Rebroadcast forever — deciders included, so laggards (and recovered
     nodes) catch up to the winning pair; the engine stops the run once
     every live node has decided. *)
  announce st @ broadcast st

let msg_ids _ = 1

module F = Amac.Fingerprint

let fingerprint st acc =
  acc |> F.int st.me |> F.int st.margin |> F.int st.c |> F.int st.v
  |> F.int st.max_seen.(0)
  |> F.int st.max_seen.(1)
  |> F.option (fun (c, v) acc -> acc |> F.int c |> F.int v) st.inflight
  |> F.option F.int st.decision
  |> F.bool st.announced

let fp_msg { sender; c; v } acc = acc |> F.int sender |> F.int c |> F.int v

let clone st = { st with max_seen = Array.copy st.max_seen }

let hooks = Some { Amac.Algorithm.fingerprint; fingerprint_msg = fp_msg; clone }

let make ?(margin = 3) () =
  {
    Amac.Algorithm.name = Printf.sprintf "counter-race(margin=%d)" margin;
    init = init ~margin;
    on_receive;
    on_ack;
    msg_ids;
    hooks;
  }

(* The margin argument assumes honest counters, so inflating c (or
   flipping v while keeping a plausible counter) races the decision
   threshold dishonestly. Expected to break it — documented, not
   asserted. *)
let adapter : msg Byz.Model.adapter =
  {
    mutate =
      (fun rng ~self:_ { sender; c; v } ->
        if Amac.Rng.bool rng then { sender; c = c + 1 + Amac.Rng.int rng 5; v }
        else { sender; c; v = 1 - v });
    forge =
      (fun rng ~self _seen ->
        Some
          { sender = self; c = 1 + Amac.Rng.int rng 10; v = Amac.Rng.int rng 2 });
  }
