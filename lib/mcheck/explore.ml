type step =
  | Deliver of { sender : int; receiver : int }
  | Ack of int
  | Crash of int

let pp_step fmt = function
  | Deliver { sender; receiver } ->
      Format.fprintf fmt "deliver(%d->%d)" sender receiver
  | Ack node -> Format.fprintf fmt "ack(%d)" node
  | Crash node -> Format.fprintf fmt "crash(%d)" node

type config = {
  max_depth : int;
  max_states : int;
  crash_budget : int;
  check_termination : bool;
  keying : [ `Fast | `Marshal ];
  check_collisions : bool;
}

let default =
  {
    max_depth = 64;
    max_states = 2_000_000;
    crash_budget = 0;
    check_termination = false;
    keying = `Fast;
    check_collisions = false;
  }

type stats = {
  states : int;
  transitions : int;
  dedup_hits : int;
  sleep_skips : int;
  collisions : int;
  violations : (Consensus.Checker.violation * step list) list;
  truncated : bool;
}

(* A node's untimed view: its algorithm state, the broadcast in flight (with
   the live neighbors still owed a delivery), and what it decided. Times are
   gone — only the MAC layer's ordering constraints remain. *)
type ('s, 'm) node_cfg = {
  st : 's;
  outgoing : 'm option;
  undelivered : int list;  (* live neighbors still owed the delivery *)
  decided : int option;
  crashed : bool;
}

type ('s, 'm) cfg = {
  nodes : ('s, 'm) node_cfg array;
  crashes_used : int;
  fps : int array;
      (* per-node fingerprint cache: [fps.(i)] is the finalized fingerprint
         of [nodes.(i)] (seeded with [i]), or [refold_tail] / [refold_all]
         when not yet computed. A child copies its parent's arrays and
         resets only the slots its step touched, so keying costs
         O(changed nodes), not O(n). *)
  prefixes : Amac.Fingerprint.t array;
      (* [prefixes.(i)]: the raw fold over (index, algorithm state,
         in-flight message) of [nodes.(i)], valid unless
         [fps.(i) = refold_all]. A delivery changes none of these for its
         sender, so the sender re-folds only its tail. Both caches are kept
         OUTSIDE [node_cfg] so the Marshal digest of
         [(nodes, crashes_used)] (the fallback key and the collision-check
         ground truth) is independent of cache state. *)
}

(* Markers for a stale [fps] slot. A finalized fingerprint is
   non-negative, so neither can be mistaken for one; the raw prefix spans
   all 63 bits and so carries no marker of its own. *)
let refold_tail = -1 (* the prefix is valid; fold only the tail *)
let refold_all = -2

(* Invalidate a node whose algorithm state and in-flight message did not
   change: it keeps its prefix, and [refold_all] stays [refold_all]. *)
let stale_tail fps i = if fps.(i) >= 0 then fps.(i) <- refold_tail

(* Two transitions commute iff neither reads state the other writes.
   Deliver(s,r) writes r's algorithm state and removes r from s's
   undelivered set; Ack(u) writes u. Deliveries to distinct receivers
   always commute (removals from the same sender's set are disjoint, and a
   receiver's reaction only reads the in-flight message, which is fixed
   until the ack). Crashes mutate every sender still owing the crashed node
   a delivery, so they are conservatively dependent on everything. *)
let independent a b =
  match (a, b) with
  | Deliver d1, Deliver d2 -> d1.receiver <> d2.receiver
  | Deliver d, Ack u | Ack u, Deliver d -> d.receiver <> u && d.sender <> u
  | Ack u, Ack v -> u <> v
  | Crash _, _ | _, Crash _ -> false

(* Fallback keying: digest of the marshalled bytes. The crash budget used
   so far is part of the key — equal node states with different remaining
   budgets have different futures. *)
let digest cfg = Digest.string (Marshal.to_string (cfg.nodes, cfg.crashes_used) [])

let marshal_snapshot nodes : ('s, 'm) node_cfg array =
  Marshal.from_string (Marshal.to_string nodes []) 0

module F = Amac.Fingerprint

(* Per-run machinery shared by the DFS, the sampling API and the
   configuration semantics at the end of this file.
   [clone_state] and [fingerprint] come from the algorithm's hooks when
   present: cloning replaces the Marshal round-trip, and keying replaces
   digest-of-marshalled-bytes with a 63-bit structural fold (config.keying
   can force the fallback). *)
type ('s, 'm) rt = {
  n : int;
  topology : Amac.Topology.t;
  ctxs : Amac.Algorithm.ctx array;
  algorithm : ('s, 'm) Amac.Algorithm.t;
  input_values : int list;
  clone_state : 's -> 's;
  fingerprint : (('s, 'm) cfg -> int) option;
}

(* Nodes know n but not D, as in the paper's model. *)
let make_rt algorithm ~topology ~inputs =
  let n = Amac.Topology.size topology in
  if Array.length inputs <> n then
    invalid_arg "Explore.explore: inputs length mismatches topology";
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
  let input_values = Array.to_list inputs |> List.sort_uniq Int.compare in
  let clone_state, fingerprint =
    match algorithm.Amac.Algorithm.hooks with
    | Some h ->
        let prefix nc i =
          F.int i F.empty |> h.fingerprint nc.st
          |> F.option h.fingerprint_msg nc.outgoing
        in
        let finish nc prefix =
          prefix
          |> F.list F.int nc.undelivered
          |> F.option F.int nc.decided
          |> F.bool nc.crashed |> F.to_int
        in
        ( h.clone,
          Some
            (fun cfg ->
              (* Zobrist-style combine: XOR of per-node finalized
                 fingerprints (each seeded with its index, so permutations
                 differ), then one finishing mix with the crash budget.
                 XOR makes the per-node cache possible — an order-dependent
                 fold could not reuse untouched nodes' work. *)
              let acc = ref 0 in
              for i = 0 to Array.length cfg.nodes - 1 do
                let f = cfg.fps.(i) in
                let f =
                  if f >= 0 then f
                  else begin
                    let nc = cfg.nodes.(i) in
                    if f = refold_all then cfg.prefixes.(i) <- prefix nc i;
                    let f = finish nc cfg.prefixes.(i) in
                    cfg.fps.(i) <- f;
                    f
                  end
                in
                acc := !acc lxor f
              done;
              F.to_int (F.int cfg.crashes_used (F.int !acc F.empty))) )
    | None ->
        ((fun st -> Marshal.from_string (Marshal.to_string st []) 0), None)
  in
  { n; topology; ctxs; algorithm; input_values; clone_state; fingerprint }

(* The live nodes of [l], in order. *)
let rec live nodes = function
  | [] -> []
  | v :: rest ->
      if nodes.(v).crashed then live nodes rest else v :: live nodes rest

(* [l] without its one occurrence of [v]; the tail after it is shared. *)
let rec remove v = function
  | [] -> []
  | x :: rest -> if x = v then rest else x :: remove v rest

(* Apply a node's actions in place (the caller owns a private snapshot).
   Broadcasting while one is in flight discards, as in the engine; a
   re-decide with a different value is an irrevocability violation. *)
let rec apply_actions rt ~record nodes node actions ~path =
  match actions with
  | [] -> ()
  | action :: rest ->
      (match action with
      | Amac.Algorithm.Decide value -> (
          match nodes.(node).decided with
          | None -> nodes.(node) <- { (nodes.(node)) with decided = Some value }
          | Some prior ->
              if prior <> value then
                record
                  (Consensus.Checker.Irrevocability_violation
                     { node; value; time = 0 })
                  path)
      | Amac.Algorithm.Broadcast message -> (
          match nodes.(node).outgoing with
          | Some _ -> ()
          | None ->
              nodes.(node) <-
                {
                  (nodes.(node)) with
                  outgoing = Some message;
                  undelivered =
                    live nodes (Amac.Topology.neighbors rt.topology node);
                }));
      apply_actions rt ~record nodes node rest ~path

(* Allocation-free scan for the overwhelmingly common clean case: every
   decided value is an input and all agree. [memq] is exact on immediate
   ints and skips the polymorphic-equality C call. *)
let rec clean inputs nodes i first seen_one =
  if i = Array.length nodes then true
  else
    match nodes.(i).decided with
    | None -> clean inputs nodes (i + 1) first seen_one
    | Some v ->
        List.memq v inputs
        && ((not seen_one) || v = first)
        && clean inputs nodes (i + 1) v true

(* The slow path recomputes the exact violation values on demand. *)
let check_safety rt ~record nodes ~path =
  if not (clean rt.input_values nodes 0 0 false) then begin
    let decided =
      Array.to_list nodes
      |> List.filter_map (fun c -> c.decided)
      |> List.sort_uniq Int.compare
    in
    (match decided with
    | [] | [ _ ] -> ()
    | values ->
        record (Consensus.Checker.Agreement_violation { values }) path);
    let invalid =
      List.filter (fun v -> not (List.mem v rt.input_values)) decided
    in
    if invalid <> [] then
      record
        (Consensus.Checker.Validity_violation
           { values = invalid; inputs = rt.input_values })
        path
  end

(* Every step value a run can take, built once so that enumerating the
   enabled steps allocates nothing. *)
type steps = {
  n_nodes : int;
  delivers : step array;  (* [sender * n + receiver] -> its delivery *)
  acks : step array;
  crashes : step array;
}

let step_table rt =
  let n = rt.n in
  {
    n_nodes = n;
    delivers =
      Array.init (n * n) (fun i ->
          Deliver { sender = i / n; receiver = i mod n });
    acks = Array.init n (fun u -> Ack u);
    crashes = Array.init n (fun u -> Crash u);
  }

let rec fold_deliveries steps s pending f acc =
  match pending with
  | [] -> acc
  | r :: rest ->
      let step = steps.delivers.((s * steps.n_nodes) + r) in
      fold_deliveries steps s rest f (f step acc)

let rec fold_senders steps nodes s f acc =
  if s = Array.length nodes then acc
  else
    let node = nodes.(s) in
    let acc =
      match node.outgoing with
      | Some _ when not node.crashed -> (
          match node.undelivered with
          | [] -> f steps.acks.(s) acc
          | pending -> fold_deliveries steps s pending f acc)
      | _ -> acc
    in
    fold_senders steps nodes (s + 1) f acc

let rec fold_crashes steps nodes u f acc =
  if u = Array.length nodes then acc
  else
    let acc = if nodes.(u).crashed then acc else f steps.crashes.(u) acc in
    fold_crashes steps nodes (u + 1) f acc

(* [fold_enabled config steps cfg f acc] folds [f] over the steps enabled
   at [cfg] in sibling order: by sender, each one's deliveries in
   [undelivered] order or else its ack; then, while the crash budget
   lasts, a crash of each live node. The explored counts depend on this
   order. *)
let fold_enabled config steps cfg f acc =
  let acc = fold_senders steps cfg.nodes 0 f acc in
  if cfg.crashes_used < config.crash_budget then
    fold_crashes steps cfg.nodes 0 f acc
  else acc

let quiescent config steps cfg =
  not (fold_enabled config steps cfg (fun _ _ -> true) false)

(* The child configuration shares everything with the parent except what
   the step touches: node_cfg records are updated functionally on a fresh
   array, and only the stepped node's algorithm state is cloned before its
   handler mutates it. Sound because this clone-before-mutate discipline
   holds for every transition — a shared ['s] is never written through. *)
let apply rt ~record ~transitions cfg step ~path =
  incr transitions;
  let nodes = Array.copy cfg.nodes in
  let fps = Array.copy cfg.fps in
  let prefixes = Array.copy cfg.prefixes in
  let crashes_used =
    match step with Crash _ -> cfg.crashes_used + 1 | _ -> cfg.crashes_used
  in
  (match step with
  | Crash u ->
      (* Mid-broadcast non-atomicity: neighbors already served keep the
         message; the rest never receive it. No algorithm state mutates. *)
      nodes.(u) <-
        { (nodes.(u)) with crashed = true; outgoing = None; undelivered = [] };
      fps.(u) <- refold_all;
      Array.iteri
        (fun s node ->
          if List.memq u node.undelivered then begin
            nodes.(s) <-
              {
                node with
                undelivered = remove u node.undelivered;
              };
            stale_tail fps s
          end)
        nodes
  | Deliver { sender; receiver } ->
      let message =
        match nodes.(sender).outgoing with
        | Some m -> m
        | None -> invalid_arg "Explore.apply: sender not sending"
      in
      nodes.(sender) <-
        {
          (nodes.(sender)) with
          undelivered = remove receiver nodes.(sender).undelivered;
        };
      stale_tail fps sender;
      let st = rt.clone_state nodes.(receiver).st in
      nodes.(receiver) <- { (nodes.(receiver)) with st };
      fps.(receiver) <- refold_all;
      let actions =
        rt.algorithm.Amac.Algorithm.on_receive rt.ctxs.(receiver) st message
      in
      apply_actions rt ~record nodes receiver actions ~path
  | Ack u ->
      let st = rt.clone_state nodes.(u).st in
      nodes.(u) <- { (nodes.(u)) with st; outgoing = None };
      fps.(u) <- refold_all;
      let actions = rt.algorithm.Amac.Algorithm.on_ack rt.ctxs.(u) st in
      apply_actions rt ~record nodes u actions ~path);
  let cfg = { nodes; crashes_used; fps; prefixes } in
  check_safety rt ~record cfg.nodes ~path;
  cfg

let initial_cfg rt ~record =
  let inits = Array.map rt.algorithm.Amac.Algorithm.init rt.ctxs in
  let nodes =
    Array.map
      (fun (st, _) ->
        { st; outgoing = None; undelivered = []; decided = None; crashed = false })
      inits
  in
  Array.iteri
    (fun i (_, actions) -> apply_actions rt ~record nodes i actions ~path:[])
    inits;
  check_safety rt ~record nodes ~path:[];
  let n = Array.length nodes in
  {
    nodes;
    crashes_used = 0;
    fps = Array.make n refold_all;
    prefixes = Array.make n F.empty;
  }

let quiescent_check config ~record cfg ~path =
  if config.check_termination && cfg.crashes_used = 0 then begin
    let undecided = ref [] in
    Array.iteri
      (fun i node ->
        if (not node.crashed) && node.decided = None then
          undecided := i :: !undecided)
      cfg.nodes;
    if !undecided <> [] then
      record
        (Consensus.Checker.Termination_violation { nodes = List.rev !undecided })
        path
  end

(* Sleep sets are [int] bitmasks. Every sleepable step (a delivery over
   one directed edge, or an ack) owns one bit; a crash is dependent on
   every step, so it never sleeps and owns none. [indep.(b)] is the mask
   of the steps independent of bit [b]'s step, so the child's sleep set
   after a step is one [land]. *)
type sleep_bits = {
  deliver : int array;  (* [sender * n + receiver] -> bit index *)
  ack : int array;  (* node -> bit index *)
  indep : int array;
}

let max_sleep_bits = 62

let sleep_bits rt table =
  let n = rt.n in
  let steps =
    List.concat_map
      (fun s ->
        List.map
          (fun r -> table.delivers.((s * n) + r))
          (Amac.Topology.neighbors rt.topology s))
      (List.init n Fun.id)
    @ Array.to_list table.acks
    |> Array.of_list
  in
  let count = Array.length steps in
  if count > max_sleep_bits then
    invalid_arg
      (Printf.sprintf
         "Explore.explore: %d sleepable steps (2|E| + n) exceed the %d bits \
          of a sleep mask"
         count max_sleep_bits);
  let deliver = Array.make (n * n) (-1) and ack = Array.make n (-1) in
  Array.iteri
    (fun b -> function
      | Deliver { sender; receiver } -> deliver.((sender * n) + receiver) <- b
      | Ack u -> ack.(u) <- b
      | Crash _ -> assert false)
    steps;
  let indep =
    Array.map
      (fun a ->
        let mask = ref 0 in
        Array.iteri
          (fun b step ->
            if independent a step then mask := !mask lor (1 lsl b))
          steps;
        !mask)
      steps
  in
  { deliver; ack; indep }

(* [step]'s bit index, or -1 for a crash. *)
let bit_index bits = function
  | Deliver { sender; receiver } ->
      bits.deliver.((sender * Array.length bits.ack) + receiver)
  | Ack u -> bits.ack.(u)
  | Crash _ -> -1

(* The seen-set key: the structural fingerprint under fast keying, else a
   dense id interned per Marshal digest, so both keyings share one
   {!Seen} table. [check_collisions] cross-checks each fingerprint against
   the Marshal digest and counts fingerprints claimed by two distinct
   digests. *)
let make_key config rt =
  match rt.fingerprint with
  | Some fp when config.keying = `Fast ->
      let digests =
        if config.check_collisions then Some (Hashtbl.create 4096) else None
      in
      let collisions = ref 0 in
      let key cfg =
        let k = fp cfg in
        (match digests with
        | Some tbl -> (
            let d = digest cfg in
            match Hashtbl.find_opt tbl k with
            | Some prior -> if prior <> d then incr collisions
            | None -> Hashtbl.add tbl k d)
        | None -> ());
        k
      in
      (key, collisions)
  | _ ->
      let ids : (string, int) Hashtbl.t = Hashtbl.create 4096 in
      let key cfg =
        let d = digest cfg in
        match Hashtbl.find_opt ids d with
        | Some id -> id
        | None ->
            let id = Hashtbl.length ids in
            Hashtbl.add ids d id;
            id
      in
      (key, ref 0)

(* The explorer stops at the first violation, carrying its schedule out. *)
exception Violation_found of Consensus.Checker.violation * step list

let explore config algorithm ~topology ~inputs =
  let rt = make_rt algorithm ~topology ~inputs in
  let table = step_table rt in
  let bits = sleep_bits rt table in
  let states = ref 0 in
  let transitions = ref 0 in
  let dedup_hits = ref 0 in
  let sleep_skips = ref 0 in
  let truncated = ref false in
  let record violation path = raise (Violation_found (violation, List.rev path)) in
  let key, collisions = make_key config rt in
  let seen = Seen.create (Array.length bits.indep) in
  let rec dfs cfg ~depth ~sleep ~path =
    match Seen.visit seen (key cfg) sleep with
    | Dedup -> incr dedup_hits
    | (Fresh | Revisit) as verdict ->
        if verdict = Fresh then incr states;
        if !states > config.max_states then truncated := true
        else if depth >= config.max_depth then begin
          if quiescent config table cfg then
            quiescent_check config ~record cfg ~path
          else truncated := true
        end
        else begin
          (* [all] is sleep ∪ executed-so-far. *)
          let sibling step all =
            let b = bit_index bits step in
            let bit = if b < 0 then 0 else 1 lsl b in
            if sleep land bit <> 0 then begin
              incr sleep_skips;
              all
            end
            else begin
              let path = step :: path in
              let child = apply rt ~record ~transitions cfg step ~path in
              let child_sleep = if b < 0 then 0 else all land bits.indep.(b) in
              dfs child ~depth:(depth + 1) ~sleep:child_sleep ~path;
              all lor bit
            end
          in
          ignore (fold_enabled config table cfg sibling sleep : int);
          if config.check_termination && quiescent config table cfg then
            quiescent_check config ~record cfg ~path
        end
  in
  let violations =
    try
      dfs (initial_cfg rt ~record) ~depth:0 ~sleep:0 ~path:[];
      []
    with Violation_found (violation, path) -> [ (violation, path) ]
  in
  {
    states = !states;
    transitions = !transitions;
    dedup_hits = !dedup_hits;
    sleep_skips = !sleep_skips;
    collisions = !collisions;
    violations;
    truncated = !truncated;
  }

(* ------------------------------------------------------------------ *)
(* Reachable-configuration sampling (bench B7, fingerprint tests)      *)
(* ------------------------------------------------------------------ *)

type ('s, 'm) snapshot_set = {
  ss_rt : ('s, 'm) rt;
  ss_cfgs : ('s, 'm) cfg array;
}

let sample config algorithm ~topology ~inputs ~max_samples =
  let rt = make_rt algorithm ~topology ~inputs in
  let table = step_table rt in
  let quiet _ _ = () in
  let seen = Hashtbl.create 1024 in
  let collected = ref [] in
  let count = ref 0 in
  let q = Queue.create () in
  let push cfg ~depth =
    (* Keyed on the Marshal digest regardless of hooks: the sample must be
       keying-neutral ground truth for comparing the two key functions. *)
    if !count < max_samples then begin
      let d = digest cfg in
      if not (Hashtbl.mem seen d) then begin
        Hashtbl.add seen d ();
        collected := cfg :: !collected;
        incr count;
        Queue.add (cfg, depth) q
      end
    end
  in
  let transitions = ref 0 in
  push (initial_cfg rt ~record:quiet) ~depth:0;
  while !count < max_samples && not (Queue.is_empty q) do
    let cfg, depth = Queue.pop q in
    if depth < config.max_depth then
      fold_enabled config table cfg
        (fun step () ->
          push (apply rt ~record:quiet ~transitions cfg step ~path:[])
            ~depth:(depth + 1))
        ()
  done;
  { ss_rt = rt; ss_cfgs = Array.of_list (List.rev !collected) }

let sample_size ss = Array.length ss.ss_cfgs

let keys_marshal ss =
  Array.fold_left (fun acc cfg -> acc lxor Hashtbl.hash (digest cfg)) 0 ss.ss_cfgs

let keys_fast ss =
  match ss.ss_rt.fingerprint with
  | None -> invalid_arg "Explore.keys_fast: algorithm has no fingerprint hooks"
  | Some fp ->
      (* Blank both per-node caches ([refold_all] also voids the
         prefixes) so the pass times the full structural hash, not cache
         hits left by a previous pass or copied from the configuration a
         sample was stepped from. *)
      Array.fold_left
        (fun acc cfg ->
          Array.fill cfg.fps 0 (Array.length cfg.fps) refold_all;
          acc lxor fp cfg)
        0 ss.ss_cfgs

let clones_marshal ss =
  Array.fold_left
    (fun acc cfg -> acc lxor Array.length (marshal_snapshot cfg.nodes))
    0 ss.ss_cfgs

let clones_fast ss =
  match ss.ss_rt.algorithm.Amac.Algorithm.hooks with
  | None -> invalid_arg "Explore.clones_fast: algorithm has no clone hook"
  | Some h ->
      Array.fold_left
        (fun acc cfg ->
          acc
          lxor Array.length
                 (Array.map (fun nc -> { nc with st = h.clone nc.st }) cfg.nodes))
        0 ss.ss_cfgs

let key_pairs ss =
  match ss.ss_rt.fingerprint with
  | None -> invalid_arg "Explore.key_pairs: algorithm has no fingerprint hooks"
  | Some fp -> Array.map (fun cfg -> (digest cfg, fp cfg)) ss.ss_cfgs

(* ------------------------------------------------------------------ *)
(* Configuration semantics for client queries (Lowerbound.Bivalence)  *)
(* ------------------------------------------------------------------ *)

type ('s, 'm) context = ('s, 'm) rt
type ('s, 'm) configuration = ('s, 'm) cfg
type key = Fingerprint of int | Marshalled of string

let context algorithm ~topology ~inputs = make_rt algorithm ~topology ~inputs
let initial rt = initial_cfg rt ~record:(fun _ _ -> ())

let apply rt cfg step =
  apply rt ~record:(fun _ _ -> ()) ~transitions:(ref 0) cfg step ~path:[]

(* As [make_seen] keys without [check_collisions]: the fingerprint when the
   algorithm has hooks, else the Marshal digest. *)
let key rt cfg =
  match rt.fingerprint with
  | Some fp -> Fingerprint (fp cfg)
  | None -> Marshalled (digest cfg)

let decided cfg i = cfg.nodes.(i).decided
let crashed cfg i = cfg.nodes.(i).crashed

(* [undelivered] keeps the sorted order of the neighbor list, so its head
   is the smallest live neighbor still owed the message. *)
let valid_step cfg sender =
  let node = cfg.nodes.(sender) in
  if node.crashed || node.outgoing = None then None
  else
    match node.undelivered with
    | [] -> Some (Ack sender)
    | receiver :: _ -> Some (Deliver { sender; receiver })
