(* Writing your own algorithm against the abstract MAC layer API, then
   model-checking it with the Bivalence explorer.

     dune exec examples/custom_algorithm.exe

   The algorithm below — "gather-all" — is the simplest correct consensus
   algorithm when you have unique ids, knowledge of n, and no crashes (the
   paper notes in Sec 1 that under these assumptions one could "simply
   gather all values at all nodes"): every node floods (id, value) pairs
   and decides the minimum once it has all n. We implement it from scratch
   here to show the Algorithm interface, validate it with the Checker on a
   few runs, and then let the Bivalence explorer exhaustively verify small
   instances and show what a crash does to it. The algorithm has no
   fingerprint/clone hooks, so the explorer keys its configurations by the
   digest of their marshalled bytes: slower than hooks, same answers. *)

module A = Amac.Algorithm

(* Messages carry one (id, value) pair per broadcast — even tighter than
   the model's O(1)-ids budget. *)
type msg = { id : int; value : int }

type state = {
  n : int;
  known : (int * int) list ref;  (* assoc id -> value *)
  queue : (int * int) list ref;  (* pairs still to flood *)
  sending : bool ref;
  done_ : bool ref;
}

let learn st (id, value) =
  if not (List.mem_assoc id !(st.known)) then begin
    st.known := (id, value) :: !(st.known);
    st.queue := !(st.queue) @ [ (id, value) ]
  end

let next_actions st =
  let decide =
    if (not !(st.done_)) && List.length !(st.known) = st.n then begin
      st.done_ := true;
      [ A.Decide (List.fold_left (fun acc (_, v) -> min acc v) max_int !(st.known)) ]
    end
    else []
  in
  let send =
    match !(st.queue) with
    | (id, value) :: rest when not !(st.sending) ->
        st.queue := rest;
        st.sending := true;
        [ A.Broadcast { id; value } ]
    | _ -> []
  in
  decide @ send

let gather_all : (state, msg) A.t =
  {
    name = "gather-all";
    init =
      (fun ctx ->
        let st =
          {
            n = Option.get ctx.n;
            known = ref [];
            queue = ref [];
            sending = ref false;
            done_ = ref false;
          }
        in
        learn st (Amac.Node_id.unique_exn ctx.id, ctx.input);
        (st, next_actions st));
    on_receive =
      (fun _ctx st msg ->
        learn st (msg.id, msg.value);
        next_actions st);
    on_ack =
      (fun _ctx st ->
        st.sending := false;
        next_actions st);
    msg_ids = (fun _ -> 1);
    hooks = None;
  }

let () =
  Printf.printf "A custom algorithm against the abstract MAC layer API.\n\n";

  (* 1. Spot-check it on a few topologies and schedulers. *)
  List.iter
    (fun (name, topology, scheduler) ->
      let n = Amac.Topology.size topology in
      let result =
        Consensus.Runner.run gather_all ~topology ~scheduler
          ~inputs:(Consensus.Runner.inputs_alternating ~n)
      in
      Printf.printf "%-28s %s (t=%s)\n" name
        (Format.asprintf "%a" Consensus.Checker.pp result.report)
        (match result.decision_time with
        | Some t -> string_of_int t
        | None -> "-"))
    [
      ("6-clique / random", Amac.Topology.clique 6,
       Amac.Scheduler.random (Amac.Rng.create 1) ~fack:5);
      ("3x3 grid / max-delay", Amac.Topology.grid ~width:3 ~height:3,
       Amac.Scheduler.max_delay ~fack:4);
      ("ring 8 / synchronous", Amac.Topology.ring 8,
       Amac.Scheduler.synchronous);
    ];

  (* 2. Exhaustively verify a small instance: every valid-step schedule on
     a 3-clique decides correctly. *)
  let explorer =
    Lowerbound.Bivalence.create gather_all
      ~topology:(Amac.Topology.clique 3)
      ~inputs:[| 1; 0; 1 |]
  in
  Printf.printf "\nExhaustive check on the 3-clique with inputs [1;0;1]:\n";
  (match Lowerbound.Bivalence.initial_verdict explorer with
  | Univalent v ->
      Printf.printf "  every schedule decides %d (univalent) — as expected \
                     for gather-all, whose decision never depends on the \
                     schedule.\n" v
  | Bivalent -> Printf.printf "  bivalent (unexpected for gather-all!)\n"
  | Blocked -> Printf.printf "  blocked (bug!)\n");
  (match
     Lowerbound.Bivalence.find_agreement_violation explorer ~max_crashes:0
       ~max_depth:40 ()
   with
  | None -> Printf.printf "  no crash-free schedule violates agreement.\n"
  | Some _ -> Printf.printf "  agreement violation found (bug!)\n");

  (* 3. And what one crash does to it: gather-all waits for ALL n values,
     so any crash blocks everyone — far more fragile than two-phase or
     wPAXOS, which is why the paper's algorithms don't gather. *)
  match
    Lowerbound.Bivalence.find_termination_violation explorer ~max_crashes:1
      ~max_depth:12 ()
  with
  | Some schedule ->
      Printf.printf
        "  one crash blocks it after %d steps (gather-all needs every \
         node!): %s\n"
        (List.length schedule)
        (String.concat " "
           (List.map
              (Format.asprintf "%a" Lowerbound.Bivalence.pp_step)
              schedule))
  | None -> Printf.printf "  no 1-crash block found within depth 12.\n"
