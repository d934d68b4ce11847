module E = Mcheck.Explore

type verdict = Univalent of int | Bivalent | Blocked

type step = E.step =
  | Deliver of { sender : int; receiver : int }
  | Ack of int
  | Crash of int

let pp_step = E.pp_step

type ('s, 'm) t = {
  semantics : ('s, 'm) E.context;
  n : int;
  initial : ('s, 'm) E.configuration;
  valency_memo : (E.key, bool * bool) Hashtbl.t;  (* key -> reachable values *)
}

let create algorithm ~topology ~inputs =
  let n = Amac.Topology.size topology in
  if Array.length inputs <> n then
    invalid_arg "Bivalence.create: inputs length mismatches topology";
  let semantics = E.context algorithm ~topology ~inputs in
  let initial = E.initial semantics in
  { semantics; n; initial; valency_memo = Hashtbl.create 4096 }

let nodes t = List.init t.n Fun.id
let valid_steps t config = List.filter_map (E.valid_step config) (nodes t)

let decided_pair t config =
  List.fold_left
    (fun (zero, one) i ->
      match E.decided config i with
      | Some 0 -> (true, one)
      | Some _ -> (zero, true)
      | None -> (zero, one))
    (false, false) (nodes t)

(* Crash-free valency: which decision values are reachable by valid-step
   extensions (memoized exhaustive search). *)
let rec valency t config =
  let k = E.key t.semantics config in
  match Hashtbl.find_opt t.valency_memo k with
  | Some v -> v
  | None ->
      (* Mark in-progress to cut cycles (revisiting adds nothing new). *)
      Hashtbl.replace t.valency_memo k (false, false);
      let result =
        List.fold_left
          (fun (zero, one) step ->
            if zero && one then (zero, one)
            else
              let z, o = valency t (E.apply t.semantics config step) in
              (zero || z, one || o))
          (decided_pair t config) (valid_steps t config)
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
  if max_depth < 0 then
    invalid_arg
      (Printf.sprintf "Bivalence.explore: max_depth %d is negative" max_depth);
  let configs_by_depth = Array.make (max_depth + 1) 0 in
  let bivalent_by_depth = Array.make (max_depth + 1) 0 in
  let seen = Hashtbl.create 4096 in
  let deepest = ref (-1) in
  let total = ref 0 in
  let queue = Queue.create () in
  Queue.add (t.initial, 0) queue;
  Hashtbl.replace seen (E.key t.semantics t.initial) ();
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
          let next = E.apply t.semantics config step in
          let k = E.key t.semantics next in
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.replace seen k ();
            Queue.add (next, depth + 1) queue
          end)
        (valid_steps t config)
  done;
  { configs_by_depth; bivalent_by_depth; deepest_bivalent = !deepest;
    total_configs = !total }

(* DFS with crash steps allowed, looking for a configuration satisfying
   [target]. Returns the schedule in execution order. [max_configs] bounds
   the configurations visited: with crash steps the tree can be enormous, so
   an absolute budget keeps searches predictable (None then means "none
   found within the budget"). The key covers the crashes used, so a
   configuration is expanded at most once. *)
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
      let k = E.key t.semantics config in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.replace seen k ();
        let crash_steps =
          if crashes < max_crashes then
            List.filter_map
              (fun i -> if E.crashed config i then None else Some (Crash i))
              (nodes t)
          else []
        in
        List.iter
          (fun step ->
            let extra = match step with Crash _ -> 1 | _ -> 0 in
            dfs
              (E.apply t.semantics config step)
              ~crashes:(crashes + extra) ~depth:(depth + 1)
              ~path:(step :: path))
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
    && List.exists
         (fun i -> (not (E.crashed config i)) && E.decided config i = None)
         (nodes t)
  in
  search_with_crashes t ~max_crashes ~max_depth ~max_configs ~target

let find_agreement_violation t ~max_crashes ~max_depth ?(max_configs = 500_000) () =
  let target config =
    let zero, one = decided_pair t config in
    zero && one
  in
  search_with_crashes t ~max_crashes ~max_depth ~max_configs ~target

let check_lemma_3_1 t ~node ~search_depth =
  if node < 0 || node >= t.n then
    invalid_arg
      (Printf.sprintf "Bivalence.check_lemma_3_1: node %d outside [0, %d)" node
         t.n);
  let seen = Hashtbl.create 1024 in
  let exception Found of step list in
  let rec dfs config ~depth ~path =
    (match E.valid_step config node with
    | Some s ->
        let zero, one = valency t (E.apply t.semantics config s) in
        if zero && one then raise (Found (List.rev path))
    | None -> ());
    if depth < search_depth then begin
      let k = E.key t.semantics config in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.replace seen k ();
        List.iter
          (fun step ->
            dfs (E.apply t.semantics config step) ~depth:(depth + 1)
              ~path:(step :: path))
          (valid_steps t config)
      end
    end
  in
  try
    dfs t.initial ~depth:0 ~path:[];
    None
  with Found schedule -> Some schedule
