type ('case, 'v) counterexample = {
  iteration : int;
  case : 'case;
  original : 'case;
  violations : 'v list;
}

type ('case, 'v) outcome = {
  iterations_run : int;
  counterexample : ('case, 'v) counterexample option;
}

type ('case, 'v) shrinker = {
  replay : 'case -> 'v list;
  passes : ('case -> 'case list) list;
}

type ('case, 'v) t = {
  generate : Amac.Rng.t -> 'case * 'v list;
  shrink : ('case, 'v) shrinker option;
  pp : Format.formatter -> ('case, 'v) counterexample -> unit;
}

exception Raised of { iteration : int; exn : exn }

(* splitmix-style mixing so that (seed, iteration) pairs give uncorrelated
   generators without the caller managing a stream. *)
let derive ~seed ~iteration =
  let rng = Amac.Rng.create ((seed * 0x9E3779B1) lxor iteration) in
  ignore (Amac.Rng.bits64 rng);
  rng

(* At most one crash per node: the engine (rightly) rejects a second crash
   of the same incarnation. *)
let early_crashes rng ~n ~fack ~max =
  let crash_count = Amac.Rng.int rng (max + 1) in
  List.init crash_count (fun _ ->
      ( Amac.Rng.int rng n,
        Amac.Rng.int_range rng ~lo:0 ~hi:(((2 * fack) + 1) * 2) ))
  |> List.sort_uniq compare
  |> List.fold_left
       (fun acc (node, time) ->
         if List.mem_assoc node acc then acc else (node, time) :: acc)
       []
  |> List.rev

let truncations l =
  let len = List.length l in
  List.filter_map
    (fun k ->
      if k < len then Some (List.filteri (fun i _ -> i < k) l) else None)
    [ 0; len / 4; len / 2; 3 * len / 4; len - 1 ]

let flattenings plan =
  let flat (d : Amac.Scheduler.decision) =
    {
      Amac.Scheduler.ack_delay = 1;
      delays = List.map (fun (v, _) -> (v, 1)) d.Amac.Scheduler.delays;
    }
  in
  List.map flat plan
  :: List.mapi
       (fun i _ -> List.mapi (fun j d -> if i = j then flat d else d) plan)
       plan

let input_flips inputs =
  List.filter_map
    (fun i ->
      if inputs.(i) = 1 then (
        let inputs = Array.copy inputs in
        inputs.(i) <- 0;
        Some inputs)
      else None)
    (List.init (Array.length inputs) Fun.id)

(* Greedy fixpoint: each pass keeps its first still-failing candidate;
   repeat while some pass made progress and the replay budget lasts. *)
let shrink ~max_shrink_runs { replay; passes } case =
  let budget = ref max_shrink_runs in
  let fails candidate =
    !budget > 0
    &&
    (decr budget;
     match replay candidate with
     | violations -> violations <> []
     | exception Invalid_argument _ -> false)
  in
  let rec fixpoint case =
    let changed, case =
      List.fold_left
        (fun (changed, case) pass ->
          match List.find_opt fails (pass case) with
          | Some better -> (true, better)
          | None -> (changed, case))
        (false, case) passes
    in
    if changed && !budget > 0 then fixpoint case else case
  in
  fixpoint case

(* First failing or raising iteration in [lo, hi). Pure in
   (campaign, seed, lo, hi): every iteration re-derives its own generator,
   so the same range scanned on any domain yields the same answer. *)
let scan t ~seed ~lo ~hi =
  let rec go i =
    if i >= hi then None
    else
      match t.generate (derive ~seed ~iteration:i) with
      | _, [] -> go (i + 1)
      | found -> Some (i, Ok found)
      | exception exn -> Some (i, Error (exn, Printexc.get_raw_backtrace ()))
  in
  go lo

let run ?pool ?(jobs = 1) ?(progress = ignore) ?(max_shrink_runs = 2_000) t
    ~iterations ~seed =
  let waves pool =
    (* Small chunks: each iteration is already tens of microseconds, so a
       chunk of a few amortizes the cross-domain wakeup, keeps the
       per-domain allocation bursts short (long concurrent bursts amplify
       minor-GC stop-the-world stalls), and bounds wasted work past the
       first failure to wave granularity. *)
    let chunk = 4 in
    let wave = Par.size pool * 4 * chunk in
    let rec from start =
      if start >= iterations then
        { iterations_run = iterations; counterexample = None }
      else
        let stop = min iterations (start + wave) in
        let chunks =
          Array.init
            ((stop - start + chunk - 1) / chunk)
            (fun k ->
              let lo = start + (k * chunk) in
              (lo, min stop (lo + chunk)))
        in
        (* Chunks are contiguous and ascending, so the first hit is the
           minimum failing iteration. *)
        let first =
          Par.map pool (fun (lo, hi) -> scan t ~seed ~lo ~hi) chunks
          |> Array.find_map Fun.id
        in
        let last = match first with Some (i, _) -> i | None -> stop - 1 in
        for i = start to last do
          progress i
        done;
        match first with
        | None -> from stop
        | Some (iteration, Error (exn, bt)) ->
            Printexc.raise_with_backtrace (Raised { iteration; exn }) bt
        | Some (iteration, Ok (original, violations)) ->
            let case, violations =
              match t.shrink with
              | None -> (original, violations)
              | Some s ->
                  let case = shrink ~max_shrink_runs s original in
                  (case, s.replay case)
            in
            {
              iterations_run = iteration + 1;
              counterexample = Some { iteration; case; original; violations };
            }
    in
    from 0
  in
  match pool with
  | Some pool -> waves pool
  | None -> Par.with_pool ~domains:jobs waves
