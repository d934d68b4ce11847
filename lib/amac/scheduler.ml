type plan = { receives : (int * int) list; ack_at : int }

type t = {
  name : string;
  fack : int;
  plan : now:int -> sender:int -> neighbors:int list -> plan;
  unreliable_plan :
    (now:int -> sender:int -> candidates:int list -> ack_at:int ->
     (int * int) list)
    option;
  contention_stretch : (contention:int -> int) option;
}

let make ~name ~fack plan =
  if fack < 1 then invalid_arg "Scheduler.make: fack must be >= 1";
  { name; fack; plan; unreliable_plan = None; contention_stretch = None }

let interference ?name ?cap ~alpha t =
  if alpha < 0 then invalid_arg "Scheduler.interference: alpha must be >= 0";
  let cap = match cap with Some c -> c | None -> 4 * t.fack in
  if cap < 0 then invalid_arg "Scheduler.interference: cap must be >= 0";
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "%s+sinr(a=%d,cap=%d)" t.name alpha cap
  in
  let stretch ~contention = min cap (alpha * max 0 contention) in
  { t with name; contention_stretch = Some stretch }

let bernoulli_unreliable rng ~p t =
  if p < 0.0 || p > 1.0 then
    invalid_arg "Scheduler.bernoulli_unreliable: p must be in [0, 1]";
  let plan ~now ~sender:_ ~candidates ~ack_at =
    List.filter_map
      (fun candidate ->
        if Rng.float rng 1.0 < p then
          Some (candidate, Rng.int_range rng ~lo:(now + 1) ~hi:(max (now + 1) ack_at))
        else None)
      candidates
  in
  {
    t with
    name = Printf.sprintf "%s+flaky(%.2f)" t.name p;
    unreliable_plan = Some plan;
  }

let uniform_delay ~delay ~now ~neighbors =
  {
    receives = List.map (fun v -> (v, now + delay)) neighbors;
    ack_at = now + delay;
  }

type decision = { ack_delay : int; delays : (int * int) list }

let record t =
  let recorded = ref [] in
  let plan ~now ~sender ~neighbors =
    let plan = t.plan ~now ~sender ~neighbors in
    let decision =
      {
        ack_delay = plan.ack_at - now;
        delays = List.map (fun (v, time) -> (v, time - now)) plan.receives;
      }
    in
    recorded := decision :: !recorded;
    plan
  in
  ( { t with name = Printf.sprintf "%s+recorded" t.name; plan },
    fun () -> List.rev !recorded )

let replay ?(fallback_delay = 1) decisions =
  if fallback_delay < 1 then
    invalid_arg "Scheduler.replay: fallback_delay must be >= 1";
  let fack =
    List.fold_left
      (fun acc d -> max acc (max 1 d.ack_delay))
      fallback_delay decisions
  in
  let remaining = ref decisions in
  let plan ~now ~sender:_ ~neighbors =
    match !remaining with
    | [] -> uniform_delay ~delay:fallback_delay ~now ~neighbors
    | decision :: rest ->
        remaining := rest;
        let ack_delay = max 1 decision.ack_delay in
        (* Clamping makes replay total: a decision list recorded against one
           topology (or mutated by the shrinker) stays a valid plan against
           any other — unknown neighbors get the ack delay, out-of-window
           delays are pulled back into (now, ack]. *)
        let delay_for v =
          match List.assoc_opt v decision.delays with
          | Some d -> min ack_delay (max 1 d)
          | None -> ack_delay
        in
        {
          receives = List.map (fun v -> (v, now + delay_for v)) neighbors;
          ack_at = now + ack_delay;
        }
  in
  make ~name:(Printf.sprintf "replay(%d)" (List.length decisions)) ~fack plan

let synchronous =
  make ~name:"synchronous" ~fack:1 (fun ~now ~sender:_ ~neighbors ->
      uniform_delay ~delay:1 ~now ~neighbors)

let fixed ~delay =
  make
    ~name:(Printf.sprintf "fixed(%d)" delay)
    ~fack:delay
    (fun ~now ~sender:_ ~neighbors -> uniform_delay ~delay ~now ~neighbors)

let max_delay ~fack =
  make
    ~name:(Printf.sprintf "max-delay(%d)" fack)
    ~fack
    (fun ~now ~sender:_ ~neighbors -> uniform_delay ~delay:fack ~now ~neighbors)

let random rng ~fack =
  make
    ~name:(Printf.sprintf "random(%d)" fack)
    ~fack
    (fun ~now ~sender:_ ~neighbors ->
      let ack_delay = Rng.int_range rng ~lo:1 ~hi:fack in
      let receives =
        List.map
          (fun v -> (v, now + Rng.int_range rng ~lo:1 ~hi:ack_delay))
          neighbors
      in
      { receives; ack_at = now + ack_delay })

let jittered rng ~fack ~spread =
  if spread < 0 || spread >= fack then
    invalid_arg "Scheduler.jittered: need 0 <= spread < fack";
  let center = max 1 (fack / 2) in
  make
    ~name:(Printf.sprintf "jittered(%d+-%d)" center spread)
    ~fack
    (fun ~now ~sender:_ ~neighbors ->
      let draw () =
        let d = center + Rng.int_range rng ~lo:(-spread) ~hi:spread in
        min fack (max 1 d)
      in
      let receives = List.map (fun v -> (v, now + draw ())) neighbors in
      let latest =
        List.fold_left (fun acc (_, t) -> max acc t) (now + 1) receives
      in
      { receives; ack_at = latest })

let delayed_cut ~base_fack ~until ~cut =
  let fack = max base_fack (until + 1) in
  make
    ~name:(Printf.sprintf "delayed-cut(until=%d)" until)
    ~fack
    (fun ~now ~sender ~neighbors ->
      let time_for receiver =
        if cut ~sender ~receiver then max (now + 1) until else now + 1
      in
      let receives = List.map (fun v -> (v, time_for v)) neighbors in
      let latest =
        List.fold_left (fun acc (_, t) -> max acc t) (now + 1) receives
      in
      { receives; ack_at = latest })

let bursty ~fack ~fast_len ~slow_len =
  if fast_len < 1 || slow_len < 1 then
    invalid_arg "Scheduler.bursty: epochs must be >= 1 tick";
  let period = fast_len + slow_len in
  make
    ~name:(Printf.sprintf "bursty(%d fast/%d slow,fack=%d)" fast_len slow_len fack)
    ~fack
    (fun ~now ~sender:_ ~neighbors ->
      let delay = if now mod period < fast_len then 1 else fack in
      uniform_delay ~delay ~now ~neighbors)

let slow_node ~fack ~node =
  make
    ~name:(Printf.sprintf "slow-node(%d,fack=%d)" node fack)
    ~fack
    (fun ~now ~sender ~neighbors ->
      let delay = if sender = node then fack else 1 in
      uniform_delay ~delay ~now ~neighbors)
