type violation =
  | Agreement_violation of { values : int list }
  | Validity_violation of { values : int list; inputs : int list }
  | Termination_violation of { nodes : int list }
  | Irrevocability_violation of { node : int; value : int; time : int }

type report = {
  agreement : bool;
  validity : bool;
  termination : bool;
  irrevocability : bool;
  decided_values : int list;
  violations : violation list;
  problems : string list;
}

let describe = function
  | Agreement_violation { values } ->
      Printf.sprintf "agreement violated: decided values {%s}"
        (String.concat "," (List.map string_of_int values))
  | Validity_violation { values; inputs } ->
      Printf.sprintf "validity violated: decided {%s} not among inputs {%s}"
        (String.concat "," (List.map string_of_int values))
        (String.concat "," (List.map string_of_int inputs))
  | Termination_violation { nodes } ->
      Printf.sprintf "termination violated: nodes {%s} never decided"
        (String.concat "," (List.map string_of_int nodes))
  | Irrevocability_violation { node; value; time } ->
      Printf.sprintf "irrevocability violated: node %d re-decided %d at t=%d"
        node value time

let pp_violation fmt v = Format.pp_print_string fmt (describe v)

let is_safety = function
  | Agreement_violation _ | Validity_violation _ | Irrevocability_violation _
    ->
      true
  | Termination_violation _ -> false

let check ?honest ~inputs (outcome : Amac.Engine.outcome) =
  let n = Array.length outcome.decisions in
  if Array.length inputs <> n then
    invalid_arg "Checker.check: inputs length mismatches outcome";
  (* Byzantine-aware judgment: the consensus properties quantify over
     honest nodes only. A Byzantine node "deciding" anything — including a
     value no honest node holds, or several values in sequence — is the
     adversary talking, not a violation. With no mask every node is honest
     and this is exactly the classic checker. *)
  let honest =
    match honest with
    | None -> Array.make n true
    | Some mask ->
        if Array.length mask <> n then
          invalid_arg "Checker.check: honest mask length mismatches outcome";
        mask
  in
  let violations = ref [] in
  let violation v = violations := v :: !violations in
  let decided_values =
    List.init n (fun i -> if honest.(i) then outcome.decisions.(i) else None)
    |> List.filter_map (Option.map fst)
    |> List.sort_uniq Int.compare
  in
  let agreement =
    match decided_values with
    | [] | [ _ ] -> true
    | values ->
        violation (Agreement_violation { values });
        false
  in
  (* Validity over honest inputs only: a value planted by the adversary and
     adopted by every honest node is a validity violation even if some
     Byzantine node's nominal input matches it. *)
  let input_values =
    List.init n (fun i -> if honest.(i) then Some inputs.(i) else None)
    |> List.filter_map Fun.id |> List.sort_uniq Int.compare
  in
  let validity =
    let invalid =
      List.filter (fun v -> not (List.mem v input_values)) decided_values
    in
    match invalid with
    | [] -> true
    | values ->
        violation (Validity_violation { values; inputs = input_values });
        false
  in
  let termination =
    let missing = ref [] in
    Array.iteri
      (fun i decision ->
        if honest.(i) && (not outcome.crashed.(i)) && decision = None then
          missing := i :: !missing)
      outcome.decisions;
    match !missing with
    | [] -> true
    | nodes ->
        violation (Termination_violation { nodes = List.rev nodes });
        false
  in
  let irrevocability =
    match
      List.filter (fun (node, _, _) -> honest.(node)) outcome.extra_decides
    with
    | [] -> true
    | extras ->
        List.iter
          (fun (node, value, time) ->
            violation (Irrevocability_violation { node; value; time }))
          extras;
        false
  in
  let violations = List.rev !violations in
  {
    agreement;
    validity;
    termination;
    irrevocability;
    decided_values;
    violations;
    problems = List.map describe violations;
  }

let ok r = r.agreement && r.validity && r.termination && r.irrevocability

let safe r = r.agreement && r.validity && r.irrevocability

let safety_violations r = List.filter is_safety r.violations

let pp fmt r =
  if ok r then
    Format.fprintf fmt "consensus ok (decided {%s})"
      (String.concat "," (List.map string_of_int r.decided_values))
  else
    Format.fprintf fmt "consensus violated:@;%a"
      (Format.pp_print_list ~pp_sep:Format.pp_print_space
         Format.pp_print_string)
      r.problems

(* ------------------------------------------------------------------ *)
(* Degradation: safety asserted, liveness measured                     *)
(* ------------------------------------------------------------------ *)

type degradation = {
  safe : bool;
  safety_violations : violation list;
  correct : int list;
  decided_correct : int;
  correct_total : int;
  decided_fraction : float;
  decide_times : int list;
  max_decide_time : int option;
  broadcasts : int;
  link_dropped : int;
  stuttered : int;
  max_incarnation : int;
}

let degrade ?honest report (outcome : Amac.Engine.outcome) =
  let violations = safety_violations report in
  let is_honest i = match honest with None -> true | Some m -> m.(i) in
  (* Liveness is likewise measured over honest survivors: a Byzantine node
     that never "decides" is not degradation. *)
  let correct =
    List.filter
      (fun i -> is_honest i && not outcome.crashed.(i))
      (List.init (Array.length outcome.decisions) (fun i -> i))
  in
  let decide_times =
    List.filter_map
      (fun i -> Option.map snd outcome.decisions.(i))
      correct
    |> List.sort Int.compare
  in
  let decided_correct = List.length decide_times in
  let correct_total = List.length correct in
  {
    safe = violations = [];
    safety_violations = violations;
    correct;
    decided_correct;
    correct_total;
    decided_fraction =
      (if correct_total = 0 then 1.0
       else float_of_int decided_correct /. float_of_int correct_total);
    decide_times;
    max_decide_time =
      (match List.rev decide_times with [] -> None | t :: _ -> Some t);
    broadcasts = outcome.broadcasts;
    link_dropped = outcome.link_dropped;
    stuttered = outcome.stuttered;
    max_incarnation = Array.fold_left max 0 outcome.incarnations;
  }
