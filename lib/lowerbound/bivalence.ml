type verdict = Univalent of int | Bivalent | Blocked

type step =
  | Deliver of { sender : int; receiver : int }
  | Ack of int
  | Crash of int

let pp_step fmt = function
  | Deliver { sender; receiver } ->
      Format.fprintf fmt "deliver(%d->%d)" sender receiver
  | Ack node -> Format.fprintf fmt "ack(%d)" node
  | Crash node -> Format.fprintf fmt "crash(%d)" node

type ('s, 'm) node_cfg = {
  st : 's;
  outgoing : 'm option;
  received : bool array;  (* receiver index -> got the current message *)
  decided : int option;
  crashed : bool;
}

type ('s, 'm) config = ('s, 'm) node_cfg array

type ('s, 'm) t = {
  algorithm : ('s, 'm) Amac.Algorithm.t;
  topology : Amac.Topology.t;
  ctxs : Amac.Algorithm.ctx array;
  initial : ('s, 'm) config;
  valency_memo : (string, bool * bool) Hashtbl.t;  (* key -> reachable values *)
}

(* Configurations are keyed by the MD5 digest of their marshalled bytes:
   16 bytes per entry instead of kilobytes, at an astronomically small
   collision risk. Keys are not canonical (internal list layout leaks in),
   which only costs duplicate exploration, never wrong answers. *)
let key (config : ('s, 'm) config) = Digest.string (Marshal.to_string config [])

let snapshot (config : ('s, 'm) config) : ('s, 'm) config =
  Marshal.from_string (Marshal.to_string config []) 0

(* Apply an algorithm's actions to one node of a (private) configuration.
   Broadcasting while a message is in flight discards, as in the engine. *)
let apply_actions ~n config node actions =
  let cfg = config.(node) in
  let cfg =
    List.fold_left
      (fun cfg action ->
        match action with
        | Amac.Algorithm.Decide value ->
            if cfg.decided = None then { cfg with decided = Some value }
            else cfg
        | Amac.Algorithm.Broadcast message ->
            if cfg.outgoing = None then
              {
                cfg with
                outgoing = Some message;
                received = Array.make n false;
              }
            else cfg)
      cfg actions
  in
  config.(node) <- cfg

let create algorithm ~topology ~inputs =
  let n = Amac.Topology.size topology in
  if Array.length inputs <> n then
    invalid_arg "Bivalence.create: inputs length mismatches topology";
  let ctxs =
    Array.init n (fun i ->
        {
          Amac.Algorithm.id = Amac.Node_id.Id i;
          n = Some n;
          diameter = None;
          degree = Amac.Topology.degree topology i;
          input = inputs.(i);
        })
  in
  let inits = Array.map algorithm.Amac.Algorithm.init ctxs in
  let config =
    Array.map
      (fun (st, _) ->
        {
          st;
          outgoing = None;
          received = Array.make n false;
          decided = None;
          crashed = false;
        })
      inits
  in
  Array.iteri (fun i (_, actions) -> apply_actions ~n config i actions) inits;
  { algorithm; topology; ctxs; initial = config; valency_memo = Hashtbl.create 4096 }

(* The unique valid step of a sending node: deliver to the smallest live
   neighbor that lacks the message, else the ack. *)
let valid_step_of t (config : ('s, 'm) config) sender =
  let cfg = config.(sender) in
  if cfg.crashed then None
  else
    match cfg.outgoing with
    | None -> None
    | Some _ ->
        let pending =
          List.filter
            (fun v -> (not config.(v).crashed) && not cfg.received.(v))
            (Amac.Topology.neighbors t.topology sender)
        in
        (match pending with
        | [] -> Some (Ack sender)
        | receiver :: _ -> Some (Deliver { sender; receiver }))

let valid_steps t config =
  let steps = ref [] in
  for sender = Array.length config - 1 downto 0 do
    match valid_step_of t config sender with
    | Some step -> steps := step :: !steps
    | None -> ()
  done;
  !steps

(* Apply a step to a fresh copy of the configuration. *)
let apply t config step =
  let config = snapshot config in
  (match step with
  | Crash node ->
      config.(node) <-
        { (config.(node)) with crashed = true; outgoing = None }
  | Deliver { sender; receiver } ->
      let message =
        match config.(sender).outgoing with
        | Some m -> m
        | None -> invalid_arg "Bivalence.apply: sender not sending"
      in
      config.(sender).received.(receiver) <- true;
      if not config.(receiver).crashed then begin
        let actions =
          t.algorithm.on_receive t.ctxs.(receiver) config.(receiver).st message
        in
        apply_actions ~n:(Array.length config) config receiver actions
      end
  | Ack node ->
      config.(node) <- { (config.(node)) with outgoing = None };
      let actions = t.algorithm.on_ack t.ctxs.(node) config.(node).st in
      apply_actions ~n:(Array.length config) config node actions);
  config

let decided_pair config =
  Array.fold_left
    (fun (zero, one) cfg ->
      match cfg.decided with
      | Some 0 -> (true, one)
      | Some _ -> (zero, true)
      | None -> (zero, one))
    (false, false) config

(* Crash-free valency: which decision values are reachable by valid-step
   extensions (memoized exhaustive search). *)
let rec valency t config =
  let k = key config in
  match Hashtbl.find_opt t.valency_memo k with
  | Some v -> v
  | None ->
      (* Mark in-progress to cut cycles (revisiting adds nothing new). *)
      Hashtbl.replace t.valency_memo k (false, false);
      let zero, one = decided_pair config in
      let result =
        List.fold_left
          (fun (zero, one) step ->
            if zero && one then (zero, one)
            else
              let z, o = valency t (apply t config step) in
              (zero || z, one || o))
          (zero, one) (valid_steps t config)
      in
      Hashtbl.replace t.valency_memo k result;
      result

let verdict_of = function
  | true, true -> Bivalent
  | true, false -> Univalent 0
  | false, true -> Univalent 1
  | false, false -> Blocked

let initial_verdict t = verdict_of (valency t t.initial)

type stats = {
  configs_by_depth : int array;
  bivalent_by_depth : int array;
  deepest_bivalent : int;
  total_configs : int;
}

let explore t ~max_depth =
  let configs_by_depth = Array.make (max_depth + 1) 0 in
  let bivalent_by_depth = Array.make (max_depth + 1) 0 in
  let seen = Hashtbl.create 4096 in
  let deepest = ref (-1) in
  let total = ref 0 in
  let queue = Queue.create () in
  Queue.add (t.initial, 0) queue;
  Hashtbl.replace seen (key t.initial) ();
  while not (Queue.is_empty queue) do
    let config, depth = Queue.pop queue in
    incr total;
    configs_by_depth.(depth) <- configs_by_depth.(depth) + 1;
    (match verdict_of (valency t config) with
    | Bivalent ->
        bivalent_by_depth.(depth) <- bivalent_by_depth.(depth) + 1;
        if depth > !deepest then deepest := depth
    | Univalent _ | Blocked -> ());
    if depth < max_depth then
      List.iter
        (fun step ->
          let next = apply t config step in
          let k = key next in
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.replace seen k ();
            Queue.add (next, depth + 1) queue
          end)
        (valid_steps t config)
  done;
  {
    configs_by_depth;
    bivalent_by_depth;
    deepest_bivalent = !deepest;
    total_configs = !total;
  }

(* DFS with crash steps allowed, looking for a configuration satisfying
   [target]. Returns the schedule in execution order. [max_configs] bounds
   the distinct configurations visited: with crash steps the tree can be
   enormous and configuration keys are not canonical, so an absolute budget
   keeps searches predictable (None then means "none found within the
   budget"). *)
let search_with_crashes t ~max_crashes ~max_depth ~max_configs ~target =
  let seen = Hashtbl.create 4096 in
  let visited = ref 0 in
  let exception Found of step list in
  let exception Budget_exhausted in
  let rec dfs config ~crashes ~depth ~path =
    if target config then raise (Found (List.rev path));
    incr visited;
    if !visited > max_configs then raise Budget_exhausted;
    if depth < max_depth then begin
      let k = key config in
      let prior = Hashtbl.find_opt seen k in
      (* Revisit only if we now have more crash budget than before. *)
      let fresh =
        match prior with None -> true | Some best -> crashes < best
      in
      if fresh then begin
        Hashtbl.replace seen k crashes;
        let crash_steps =
          if crashes < max_crashes then
            List.filter_map
              (fun i ->
                if config.(i).crashed then None else Some (Crash i))
              (List.init (Array.length config) (fun i -> i))
          else []
        in
        List.iter
          (fun step ->
            let extra = match step with Crash _ -> 1 | _ -> 0 in
            dfs (apply t config step) ~crashes:(crashes + extra)
              ~depth:(depth + 1) ~path:(step :: path))
          (valid_steps t config @ crash_steps)
      end
    end
  in
  try
    dfs t.initial ~crashes:0 ~depth:0 ~path:[];
    None
  with
  | Found schedule -> Some schedule
  | Budget_exhausted -> None

let find_termination_violation t ~max_crashes ~max_depth ?(max_configs = 500_000) () =
  let target config =
    valid_steps t config = []
    && Array.exists (fun cfg -> (not cfg.crashed) && cfg.decided = None) config
  in
  search_with_crashes t ~max_crashes ~max_depth ~max_configs ~target

let find_agreement_violation t ~max_crashes ~max_depth ?(max_configs = 500_000) () =
  let target config =
    let zero, one = decided_pair config in
    zero && one
  in
  search_with_crashes t ~max_crashes ~max_depth ~max_configs ~target

let check_lemma_3_1 t ~node ~search_depth =
  let seen = Hashtbl.create 1024 in
  let exception Found of step list in
  let rec dfs config ~depth ~path =
    (match valid_step_of t config node with
    | Some s ->
        let zero, one = valency t (apply t config s) in
        if zero && one then raise (Found (List.rev path))
    | None -> ());
    if depth < search_depth then begin
      let k = key config in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.replace seen k ();
        List.iter
          (fun step -> dfs (apply t config step) ~depth:(depth + 1) ~path:(step :: path))
          (valid_steps t config)
      end
    end
  in
  try
    dfs t.initial ~depth:0 ~path:[];
    None
  with Found schedule -> Some schedule
