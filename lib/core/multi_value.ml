type 'm msg =
  | Inner of { instance : int; payload : 'm }
  | Candidate of { instance : int; value : int }

type mode =
  | Running  (* the current bit instance is in progress *)
  | Awaiting_candidate  (* bit decided against our candidate; must adopt *)
  | Finished

type 'm channel = {
  mutable out_q : 'm msg list;
  mutable in_flight : 'm msg option;
}

type ('s, 'm) state = {
  bits : int;
  base : ('s, 'm) Amac.Algorithm.t;
  base_ctx : Amac.Algorithm.ctx;
  mutable candidate : int;
  decided_bits : int array;  (* -1 = not yet *)
  mutable current : int;  (* instance index in progress / awaited *)
  mutable mode : mode;
  instances : 's option array;
  instance_inputs : int array;  (* the bit each instance was started with *)
  flooded : bool array;  (* candidate flood issued for instance i *)
  mutable future_inner : (int * 'm) list;  (* buffered, newest last *)
  known_candidate : int option array;
      (* first candidate seen per instance; flooding is once-per-node, so a
         candidate must be remembered the moment it passes by — a node that
         only later discovers it must adopt will never hear it again *)
  channel : 'm channel;
  mutable final : int option;
  mutable announced : bool;
}

let bit_of value j = (value lsr j) land 1

(* Each instance's input is the candidate's bit at the moment the instance
   started; later candidate adoptions must not retroactively change what a
   (possibly still-chattering) past instance believes it proposed. *)
let instance_ctx st instance =
  { st.base_ctx with Amac.Algorithm.input = st.instance_inputs.(instance) }

let maybe_send st =
  match st.channel.out_q with
  | message :: rest when st.channel.in_flight = None ->
      st.channel.out_q <- rest;
      st.channel.in_flight <- Some message;
      [ Amac.Algorithm.Broadcast message ]
  | _ -> []

let enqueue st message = st.channel.out_q <- st.channel.out_q @ [ message ]

(* Flood one candidate per instance: our own (if consistent / adopted) or
   the first relayed copy — either propagates a prefix-consistent value. *)
let flood_candidate st ~instance value =
  if not st.flooded.(instance) then begin
    st.flooded.(instance) <- true;
    enqueue st (Candidate { instance; value })
  end

(* Mutual recursion: finishing an instance may start the next, whose init
   may decide instantly (n = 1), may consume buffered future messages, and
   so on. All of this is zero-time local computation. *)
let rec proceed_past st instance =
  flood_candidate st ~instance st.candidate;
  st.current <- instance + 1;
  if st.current = st.bits then begin
    st.mode <- Finished;
    (* The candidate now agrees with every decided bit, so it IS the
       decided vector — and by induction some node's input. *)
    st.final <- Some st.candidate
  end
  else begin
    st.mode <- Running;
    start_instance st st.current
  end

and start_instance st instance =
  st.instance_inputs.(instance) <- bit_of st.candidate instance;
  let ist, actions = st.base.Amac.Algorithm.init (instance_ctx st instance) in
  st.instances.(instance) <- Some ist;
  apply_inner st instance actions;
  (* Replay traffic from nodes that reached this instance before us. *)
  let replay, keep =
    List.partition (fun (i, _) -> i = instance) st.future_inner
  in
  st.future_inner <- keep;
  List.iter (fun (_, payload) -> deliver_inner st instance payload) replay

and deliver_inner st instance payload =
  match st.instances.(instance) with
  | None -> st.future_inner <- st.future_inner @ [ (instance, payload) ]
  | Some ist ->
      let actions =
        st.base.Amac.Algorithm.on_receive (instance_ctx st instance) ist
          payload
      in
      apply_inner st instance actions

and apply_inner st instance actions =
  List.iter
    (fun action ->
      match action with
      | Amac.Algorithm.Broadcast payload ->
          enqueue st (Inner { instance; payload })
      | Amac.Algorithm.Decide bit -> bit_decided st instance bit)
    actions

and bit_decided st instance bit =
  if st.decided_bits.(instance) = -1 then begin
    st.decided_bits.(instance) <- bit;
    if instance = st.current && st.mode = Running then
      if bit_of st.candidate instance = bit then proceed_past st instance
      else begin
        st.mode <- Awaiting_candidate;
        try_adopt st
      end
  end

and handle_candidate st ~instance value =
  (* Remember and relay the first candidate per instance (any flooded
     candidate for instance i is prefix-consistent through i: its origin
     passed instance i with it), then adopt if we were waiting on one. *)
  if st.known_candidate.(instance) = None then
    st.known_candidate.(instance) <- Some value;
  flood_candidate st ~instance value;
  if st.mode = Awaiting_candidate && instance = st.current then begin
    st.candidate <- value;
    st.mode <- Running;
    proceed_past st instance
  end

and try_adopt st =
  match st.known_candidate.(st.current) with
  | Some value ->
      st.candidate <- value;
      st.mode <- Running;
      proceed_past st st.current
  | None -> ()

let finish st =
  let announce =
    match st.final with
    | Some value when not st.announced ->
        st.announced <- true;
        [ Amac.Algorithm.Decide value ]
    | Some _ | None -> []
  in
  announce @ maybe_send st

let init ~bits base (ctx : Amac.Algorithm.ctx) =
  if ctx.input < 0 || ctx.input >= 1 lsl bits then
    invalid_arg
      (Printf.sprintf "Multi_value: input %d outside [0, 2^%d)" ctx.input bits);
  let st =
    {
      bits;
      base;
      base_ctx = ctx;
      candidate = ctx.input;
      decided_bits = Array.make bits (-1);
      current = 0;
      mode = Running;
      instances = Array.make bits None;
      instance_inputs = Array.make bits 0;
      flooded = Array.make bits false;
      future_inner = [];
      known_candidate = Array.make bits None;
      channel = { out_q = []; in_flight = None };
      final = None;
      announced = false;
    }
  in
  start_instance st 0;
  (st, finish st)

let on_receive _ctx st message =
  (match message with
  | Inner { instance; payload } ->
      if instance < st.bits then deliver_inner st instance payload
  | Candidate { instance; value } ->
      if instance < st.bits then handle_candidate st ~instance value);
  finish st

let on_ack _ctx st =
  (match st.channel.in_flight with
  | Some (Inner { instance; payload = _ }) -> (
      st.channel.in_flight <- None;
      match st.instances.(instance) with
      | Some ist ->
          apply_inner st instance
            (st.base.Amac.Algorithm.on_ack (instance_ctx st instance) ist)
      | None -> ())
  | Some (Candidate _) -> st.channel.in_flight <- None
  | None -> ());
  finish st

(* Verification fast path (Algorithm.hooks), available exactly when the
   base algorithm provides its own — inner instance states and payloads are
   folded/cloned through the base hooks. *)
module F = Amac.Fingerprint

let hooks_over (bh : ('s, 'm) Amac.Algorithm.hooks) =
  let fp_msg message acc =
    match message with
    | Inner { instance; payload } ->
        acc |> F.int 1 |> F.int instance |> bh.fingerprint_msg payload
    | Candidate { instance; value } ->
        acc |> F.int 2 |> F.int instance |> F.int value
  in
  let fingerprint st acc =
    acc |> F.int st.bits |> F.int st.candidate
    |> F.array F.int st.decided_bits
    |> F.int st.current
    |> F.int
         (match st.mode with
         | Running -> 0
         | Awaiting_candidate -> 1
         | Finished -> 2)
    |> F.array (F.option bh.fingerprint) st.instances
    |> F.array F.int st.instance_inputs
    |> F.array F.bool st.flooded
    |> F.list
         (fun (instance, payload) acc ->
           acc |> F.int instance |> bh.fingerprint_msg payload)
         st.future_inner
    |> F.array (F.option F.int) st.known_candidate
    |> F.list fp_msg st.channel.out_q
    |> F.option fp_msg st.channel.in_flight
    |> F.option F.int st.final
    |> F.bool st.announced
  in
  let clone st =
    {
      st with
      decided_bits = Array.copy st.decided_bits;
      instances = Array.map (Option.map bh.clone) st.instances;
      instance_inputs = Array.copy st.instance_inputs;
      flooded = Array.copy st.flooded;
      known_candidate = Array.copy st.known_candidate;
      channel =
        { out_q = st.channel.out_q; in_flight = st.channel.in_flight };
    }
  in
  { Amac.Algorithm.fingerprint; fingerprint_msg = fp_msg; clone }

let make ~bits base =
  if bits < 1 || bits > 30 then
    invalid_arg "Multi_value.make: need 1 <= bits <= 30";
  {
    Amac.Algorithm.name =
      Printf.sprintf "multi-value(%d bits over %s)" bits
        base.Amac.Algorithm.name;
    init = init ~bits base;
    on_receive;
    on_ack;
    msg_ids =
      (fun message ->
        match message with
        | Inner { payload; _ } -> base.Amac.Algorithm.msg_ids payload
        | Candidate _ -> 0);
    hooks = Option.map hooks_over base.Amac.Algorithm.hooks;
  }
