type event =
  | Crash of { node : int; at : int }
  | Recover of { node : int; at : int }
  | Link_drop of { edge : int * int; from_ : int; until : int }
  | Partition of { cut : int list; from_ : int; until : int }
  | Stutter of { node : int; from_ : int; until : int }

type plan = event list

let pp_event fmt = function
  | Crash { node; at } -> Format.fprintf fmt "crash %d @t%d" node at
  | Recover { node; at } -> Format.fprintf fmt "recover %d @t%d" node at
  | Link_drop { edge = u, v; from_; until } ->
      Format.fprintf fmt "drop (%d,%d) [%d,%d)" u v from_ until
  | Partition { cut; from_; until } ->
      Format.fprintf fmt "partition {%s} [%d,%d)"
        (String.concat "," (List.map string_of_int cut))
        from_ until
  | Stutter { node; from_; until } ->
      Format.fprintf fmt "stutter %d [%d,%d)" node from_ until

let pp fmt plan =
  Format.fprintf fmt "@[<v>";
  List.iteri
    (fun i e ->
      if i > 0 then Format.fprintf fmt "@,";
      pp_event fmt e)
    plan;
  Format.fprintf fmt "@]"

let to_string plan = Format.asprintf "%a" pp plan

(* A plan's fault horizon: the first instant after which no injected fault
   is active any more (loss and stutter windows closed, every scheduled
   crash either recovered or permanent). Recoveries and window closings
   contribute their own time; a Crash with no matching Recover contributes
   nothing — the node is simply gone, which is the fail-stop case the
   checker already treats as "not correct at end". *)
let horizon plan =
  List.fold_left
    (fun acc -> function
      | Crash _ -> acc
      | Recover { at; _ } -> max acc at
      | Link_drop { until; _ } | Partition { until; _ } | Stutter { until; _ }
        ->
          max acc until)
    0 plan

let crashes plan =
  List.filter_map
    (function Crash { node; at } -> Some (node, at) | _ -> None)
    plan

let recoveries plan =
  List.filter_map
    (function Recover { node; at } -> Some (node, at) | _ -> None)
    plan

(* Staggered restart of a node list: each node crashes [gap] ticks after
   the previous one's crash and recovers [down_for] ticks later. With
   gap > down_for at most one node is down at a time (the classic
   one-at-a-time rolling restart); smaller gaps overlap the outages. *)
let rolling_restart ~nodes ~start ~down_for ~gap =
  if down_for < 1 then invalid_arg "Fault.rolling_restart: down_for < 1";
  if gap < 1 then invalid_arg "Fault.rolling_restart: gap < 1";
  if start < 0 then invalid_arg "Fault.rolling_restart: start < 0";
  List.concat
    (List.mapi
       (fun i node ->
         let at = start + (i * gap) in
         [ Crash { node; at }; Recover { node; at = at + down_for } ])
       nodes)

let norm_edge (u, v) = if u <= v then (u, v) else (v, u)

let overlap (a_from, a_until) (b_from, b_until) =
  a_from < b_until && b_from < a_until

let invalid fmt = Printf.ksprintf invalid_arg ("Fault.validate: " ^^ fmt)

let validate ~n plan =
  let check_node what node =
    if node < 0 || node >= n then
      invalid "%s node %d out of range [0,%d)" what node n
  in
  let check_window what from_ until =
    if from_ < 0 then invalid "%s window starts at negative time %d" what from_;
    if until <= from_ then
      invalid "%s window [%d,%d) is empty or inverted" what from_ until
  in
  List.iter
    (function
      | Crash { node; at } ->
          check_node "crash" node;
          if at < 0 then invalid "crash of node %d at negative time %d" node at
      | Recover { node; at } ->
          check_node "recover" node;
          if at < 0 then
            invalid "recover of node %d at negative time %d" node at
      | Link_drop { edge = u, v; from_; until } ->
          check_node "link-drop" u;
          check_node "link-drop" v;
          if u = v then invalid "link-drop edge (%d,%d) is a self-loop" u v;
          check_window "link-drop" from_ until
      | Partition { cut; from_; until } ->
          List.iter (check_node "partition") cut;
          check_window "partition" from_ until;
          if cut = [] then invalid "partition cut is empty";
          if List.length (List.sort_uniq Int.compare cut) <> List.length cut
          then invalid "partition cut has duplicate nodes";
          if List.length cut >= n then
            invalid "partition cut contains every node (nothing to cut)"
      | Stutter { node; from_; until } ->
          check_node "stutter" node;
          check_window "stutter" from_ until)
    plan;
  (* Per-node crash/recover alternation: crash < recover < crash < ...
     Duplicate crash of the same incarnation and recover-before-crash are
     exactly the malformed shapes this rejects. Ties are ambiguous. *)
  for node = 0 to n - 1 do
    let events =
      List.filter_map
        (function
          | Crash { node = v; at } when v = node -> Some (at, `Crash)
          | Recover { node = v; at } when v = node -> Some (at, `Recover)
          | _ -> None)
        plan
      |> List.sort (fun (ta, _) (tb, _) -> Int.compare ta tb)
    in
    let rec walk state last = function
      | [] -> ()
      | (at, kind) :: rest -> (
          if last = Some at then
            invalid "node %d has two crash/recover events at t=%d" node at;
          match (state, kind) with
          | `Up, `Crash -> walk `Down (Some at) rest
          | `Down, `Recover -> walk `Up (Some at) rest
          | `Down, `Crash ->
              invalid
                "duplicate crash of node %d at t=%d (same incarnation \
                 crashed twice, no recovery between)"
                node at
          | `Up, `Recover ->
              invalid "recover of node %d at t=%d before any crash" node at)
    in
    walk `Up None events
  done;
  (* Overlapping loss windows on the same edge are ambiguous (which window
     ate the delivery?) and almost always a plan-construction bug. Same for
     overlapping stutter windows on one node, and for two partitions in
     force at once. *)
  let link_windows = Hashtbl.create 16 in
  let stutter_windows = Hashtbl.create 16 in
  let partitions = ref [] in
  List.iter
    (function
      | Link_drop { edge; from_; until } ->
          let e = norm_edge edge in
          let prior = Option.value ~default:[] (Hashtbl.find_opt link_windows e) in
          List.iter
            (fun w ->
              if overlap w (from_, until) then
                invalid
                  "overlapping loss windows on edge (%d,%d): [%d,%d) and \
                   [%d,%d)"
                  (fst e) (snd e) (fst w) (snd w) from_ until)
            prior;
          Hashtbl.replace link_windows e ((from_, until) :: prior)
      | Stutter { node; from_; until } ->
          let prior =
            Option.value ~default:[] (Hashtbl.find_opt stutter_windows node)
          in
          List.iter
            (fun w ->
              if overlap w (from_, until) then
                invalid
                  "overlapping stutter windows on node %d: [%d,%d) and \
                   [%d,%d)"
                  node (fst w) (snd w) from_ until)
            prior;
          Hashtbl.replace stutter_windows node ((from_, until) :: prior)
      | Partition { from_; until; _ } ->
          List.iter
            (fun w ->
              if overlap w (from_, until) then
                invalid
                  "overlapping partitions: windows [%d,%d) and [%d,%d) are \
                   both in force"
                  (fst w) (snd w) from_ until)
            !partitions;
          partitions := (from_, until) :: !partitions
      | Crash _ | Recover _ -> ())
    plan

type compiled = {
  crashes : (int * int) list;
  recoveries : (int * int) list;
  drop : (now:int -> sender:int -> receiver:int -> bool) option;
  stutter : (now:int -> node:int -> bool) option;
}

let compile ~n plan =
  validate ~n plan;
  let link_windows = Hashtbl.create 16 in
  let stutter_by_node = Hashtbl.create 16 in
  let partitions = ref [] in
  List.iter
    (function
      | Link_drop { edge; from_; until } ->
          let e = norm_edge edge in
          Hashtbl.add link_windows e (from_, until)
      | Stutter { node; from_; until } ->
          Hashtbl.add stutter_by_node node (from_, until)
      | Partition { cut; from_; until } ->
          let side = Array.make n false in
          List.iter (fun v -> side.(v) <- true) cut;
          partitions := (side, from_, until) :: !partitions
      | Crash _ | Recover _ -> ())
    plan;
  let in_window now (from_, until) = from_ <= now && now < until in
  let drop =
    if Hashtbl.length link_windows = 0 && !partitions = [] then None
    else
      Some
        (fun ~now ~sender ~receiver ->
          List.exists (in_window now)
            (Hashtbl.find_all link_windows (norm_edge (sender, receiver)))
          || List.exists
               (fun (side, from_, until) ->
                 in_window now (from_, until)
                 && side.(sender) <> side.(receiver))
               !partitions)
  in
  let stutter =
    if Hashtbl.length stutter_by_node = 0 then None
    else
      Some
        (fun ~now ~node ->
          List.exists (in_window now) (Hashtbl.find_all stutter_by_node node))
  in
  { crashes = crashes plan; recoveries = recoveries plan; drop; stutter }

(* Fault events as metrics: one counter per event kind, plus the plan's
   horizon as a gauge — so a metrics snapshot of a faulted run records what
   was injected next to what the engine measured. *)
let record ~obs plan =
  let count kind =
    Obs.Metrics.inc
      (Obs.Metrics.counter obs ~labels:[ ("kind", kind) ] "fault_events_total")
  in
  List.iter
    (fun event ->
      count
        (match event with
        | Crash _ -> "crash"
        | Recover _ -> "recover"
        | Link_drop _ -> "link_drop"
        | Partition _ -> "partition"
        | Stutter _ -> "stutter"))
    plan;
  if plan <> [] then
    Obs.Metrics.set
      (Obs.Metrics.gauge obs "fault_plan_horizon")
      (float_of_int (horizon plan))
