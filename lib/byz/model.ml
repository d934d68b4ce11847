type behavior = {
  replay_period : int;
  forge_period : int;
  drop_own : bool;
}

let honest_behavior = { replay_period = 0; forge_period = 0; drop_own = false }

type tamper_kind = Silence | Equivocate

type tamper = {
  node : int;
  victims : int list;
  from_ : int;
  until : int;
  kind : tamper_kind;
}

type strategy = {
  byz : (int * behavior) list;
  tampers : tamper list;
  seed : int;
}

type 'm adapter = {
  mutate : Amac.Rng.t -> self:int -> 'm -> 'm;
  forge : Amac.Rng.t -> self:int -> 'm list -> 'm option;
}

let generic_adapter () =
  {
    mutate = (fun _rng ~self:_ m -> m);
    forge =
      (fun rng ~self:_ seen ->
        match seen with [] -> None | _ -> Some (Amac.Rng.pick rng seen));
  }

let pp_behavior fmt b =
  Format.fprintf fmt "replay=%d forge=%d%s" b.replay_period b.forge_period
    (if b.drop_own then " silent" else "")

let pp_tamper fmt t =
  Format.fprintf fmt "%s by %d -> {%s} during [%d,%d)"
    (match t.kind with Silence -> "silence" | Equivocate -> "equivocate")
    t.node
    (String.concat "," (List.map string_of_int t.victims))
    t.from_ t.until

let pp_strategy fmt s =
  Format.fprintf fmt "@[<v>byz nodes:";
  List.iter
    (fun (node, b) -> Format.fprintf fmt "@,  %d: %a" node pp_behavior b)
    s.byz;
  List.iter (fun t -> Format.fprintf fmt "@,  %a" pp_tamper t) s.tampers;
  Format.fprintf fmt "@,  seed=%d@]" s.seed

(* ------------------------------------------------------------------ *)
(* The wrapper                                                         *)
(* ------------------------------------------------------------------ *)

type ('s, 'm) node_state =
  | Honest of 's
  | Byz of ('s, 'm) byz_node

and ('s, 'm) byz_node = {
  mutable inner : 's;
  rng : Amac.Rng.t;
  mutable seen : 'm list;  (* most recent first, bounded by [seen_cap] *)
  mutable recv_count : int;
  mutable ack_count : int;
  behavior : behavior;
}

type ('s, 'm) wrapped = {
  algorithm : (('s, 'm) node_state, 'm) Amac.Algorithm.t;
  substitute : now:int -> sender:int -> receiver:int -> 'm -> 'm option;
  honest : bool array;
}

let seen_cap = 8

let wrap ~n ~adapter ~strategy (inner : ('s, 'm) Amac.Algorithm.t) :
    ('s, 'm) wrapped =
  List.iter
    (fun (node, _) ->
      if node < 0 || node >= n then
        invalid_arg "Byz.wrap: byz node out of range")
    strategy.byz;
  List.iter
    (fun t ->
      if not (List.mem_assoc t.node strategy.byz) then
        invalid_arg "Byz.wrap: tamper on an honest sender")
    strategy.tampers;
  let honest = Array.make n true in
  List.iter (fun (node, _) -> honest.(node) <- false) strategy.byz;
  (* Byzantine node-local behaviors key off event COUNTS, not time — the
     callbacks cannot see a clock (Algorithm's contract), and counters keep
     the wrapper a pure state machine, so Explore's fingerprint-keyed
     search over wrapped algorithms stays sound. *)
  let filter_actions b actions =
    List.concat_map
      (function
        (* The node fake-decided at init; whatever the inner protocol would
           decide is the adversary's secret, and a second Decide would be an
           irrevocability artifact the honest-masked checker ignores
           anyway. *)
        | Amac.Algorithm.Decide _ -> []
        | Amac.Algorithm.Broadcast _ when b.behavior.drop_own -> []
        | Amac.Algorithm.Broadcast _ as a -> [ a ])
      actions
  in
  let self_of (ctx : Amac.Algorithm.ctx) = Amac.Node_id.unique_exn ctx.id in
  let init ctx =
    let st, actions = inner.Amac.Algorithm.init ctx in
    let id = self_of ctx in
    if id < n && not honest.(id) then begin
      let b =
        {
          inner = st;
          rng = Amac.Rng.create (Hashtbl.hash (0x6b17, strategy.seed, id));
          seen = [];
          recv_count = 0;
          ack_count = 0;
          behavior = List.assoc id strategy.byz;
        }
      in
      (* Fake decide up front: the engine's all-decided cutoff must not
         wait on the adversary, and a Byzantine "decision" carrying a value
         nobody proposed is exactly what the honest-masked checker must
         shrug off (test_checker pins it). *)
      (Byz b, Amac.Algorithm.Decide 0 :: filter_actions b actions)
    end
    else (Honest st, actions)
  in
  let on_receive ctx st msg =
    match st with
    | Honest s -> inner.Amac.Algorithm.on_receive ctx s msg
    | Byz b ->
        b.recv_count <- b.recv_count + 1;
        b.seen <-
          msg :: List.filteri (fun i _ -> i < seen_cap - 1) b.seen;
        (* Still run the inner protocol: a plausible adversary keeps
           speaking the protocol's language between attacks. *)
        let actions =
          filter_actions b (inner.Amac.Algorithm.on_receive ctx b.inner msg)
        in
        let every period = period > 0 && b.recv_count mod period = 0 in
        let replayed =
          if every b.behavior.replay_period && b.seen <> [] then
            [ Amac.Algorithm.Broadcast (Amac.Rng.pick b.rng b.seen) ]
          else []
        in
        let forged =
          if every b.behavior.forge_period then
            match adapter.forge b.rng ~self:(self_of ctx) b.seen with
            | Some m -> [ Amac.Algorithm.Broadcast m ]
            | None -> []
          else []
        in
        (* Injected broadcasts go through the normal MAC rules — in
           particular the busy-sender discard: the adversary cannot send
           faster than the layer allows. *)
        actions @ replayed @ forged
  in
  let on_ack ctx st =
    match st with
    | Honest s -> inner.Amac.Algorithm.on_ack ctx s
    | Byz b ->
        b.ack_count <- b.ack_count + 1;
        filter_actions b (inner.Amac.Algorithm.on_ack ctx b.inner)
  in
  let hooks =
    match inner.Amac.Algorithm.hooks with
    | None -> None
    | Some ih ->
        let module F = Amac.Fingerprint in
        Some
          {
            Amac.Algorithm.fingerprint =
              (fun st acc ->
                match st with
                | Honest s -> acc |> F.int 0 |> ih.Amac.Algorithm.fingerprint s
                | Byz b ->
                    acc |> F.int 1
                    |> ih.Amac.Algorithm.fingerprint b.inner
                    |> Amac.Rng.fingerprint b.rng
                    |> F.list ih.Amac.Algorithm.fingerprint_msg b.seen
                    |> F.int b.recv_count |> F.int b.ack_count
                    |> F.int b.behavior.replay_period
                    |> F.int b.behavior.forge_period
                    |> F.bool b.behavior.drop_own);
            fingerprint_msg = ih.Amac.Algorithm.fingerprint_msg;
            clone =
              (fun st ->
                match st with
                | Honest s -> Honest (ih.Amac.Algorithm.clone s)
                | Byz b ->
                    Byz
                      {
                        b with
                        inner = ih.Amac.Algorithm.clone b.inner;
                        rng = Amac.Rng.copy b.rng;
                      });
          }
  in
  let substitute ~now ~sender ~receiver msg =
    let active t =
      t.node = sender && t.from_ <= now && now < t.until
      && List.mem receiver t.victims
    in
    match List.filter active strategy.tampers with
    | [] -> Some msg
    | ts when List.exists (fun t -> t.kind = Silence) ts -> None
    | _ ->
        (* Equivocation randomness is derived PER DELIVERY from the
           coordinates alone — no stream is threaded through the run, so a
           replayed schedule re-derives the identical substitution and the
           explorer's branches stay independent. *)
        let rng =
          Amac.Rng.create
            (Hashtbl.hash (0x9e37, strategy.seed, now, sender, receiver))
        in
        Some (adapter.mutate rng ~self:sender msg)
  in
  {
    algorithm =
      {
        Amac.Algorithm.name =
          Printf.sprintf "byz[%d](%s)" (List.length strategy.byz)
            inner.Amac.Algorithm.name;
        init;
        on_receive;
        on_ack;
        msg_ids = inner.Amac.Algorithm.msg_ids;
        hooks;
      };
    substitute;
    honest;
  }

(* ------------------------------------------------------------------ *)
(* Strategy generation                                                 *)
(* ------------------------------------------------------------------ *)

type profile = {
  max_byz : int;
  max_tampers : int;
  max_window : int;
  allow_silence : bool;
  allow_equivocate : bool;
  allow_replay : bool;
  allow_forge : bool;
  allow_drop_own : bool;
}

let default_profile =
  {
    max_byz = 1;
    max_tampers = 3;
    max_window = 40;
    allow_silence = true;
    allow_equivocate = true;
    allow_replay = true;
    allow_forge = true;
    allow_drop_own = true;
  }

let gen_strategy rng ~n ~fack profile =
  (* Same horizon convention as Fuzz.gen_faults: windows land inside
     the first few broadcast/ack cycles, where the protocols' phase
     structure actually lives. *)
  let horizon = ((2 * fack) + 1) * 4 in
  let cap = min profile.max_byz (max 0 (n - 1)) in
  let count = if cap <= 0 then 0 else 1 + Amac.Rng.int rng cap in
  let ids = Array.init n Fun.id in
  Amac.Rng.shuffle rng ids;
  let byz_ids =
    Array.to_list (Array.sub ids 0 count) |> List.sort Int.compare
  in
  let behavior () =
    {
      replay_period =
        (if profile.allow_replay && Amac.Rng.bool rng then
           1 + Amac.Rng.int rng 3
         else 0);
      forge_period =
        (if profile.allow_forge && Amac.Rng.bool rng then
           1 + Amac.Rng.int rng 3
         else 0);
      drop_own = profile.allow_drop_own && Amac.Rng.bool rng;
    }
  in
  let byz = List.map (fun id -> (id, behavior ())) byz_ids in
  let kinds =
    (if profile.allow_silence then [ Silence ] else [])
    @ if profile.allow_equivocate then [ Equivocate ] else []
  in
  let tampers =
    if byz_ids = [] || kinds = [] then []
    else
      List.init (Amac.Rng.int rng (profile.max_tampers + 1)) (fun _ ->
          let node = Amac.Rng.pick rng byz_ids in
          let victims =
            List.filter
              (fun v -> v <> node && Amac.Rng.bool rng)
              (List.init n Fun.id)
          in
          let victims =
            if victims = [] && n > 1 then [ (node + 1) mod n ] else victims
          in
          let from_ = Amac.Rng.int rng horizon in
          let until = from_ + 1 + Amac.Rng.int rng (max 1 profile.max_window) in
          { node; victims; from_; until; kind = Amac.Rng.pick rng kinds })
      |> List.filter (fun t -> t.victims <> [])
  in
  { byz; tampers; seed = Amac.Rng.int rng 0x3FFFFFFF }
