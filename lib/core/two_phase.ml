type status = Bivalent | Decided_value of int

type msg =
  | Phase1 of { id : int; value : int }
  | Phase2 of { id : int; status : status }

type phase =
  | In_phase1  (* own phase-1 broadcast in flight *)
  | In_phase2  (* own phase-2 broadcast in flight *)
  | Awaiting_witnesses
  | Finished

type state = {
  mutable phase : phase;
  mutable r1 : msg list;  (* everything received before the phase-1 ack *)
  mutable r2 : msg list;  (* phase-2 receipts after that, plus own *)
  mutable status : status;
  mutable witnesses : int list;  (* W: every id heard from, fixed at phase-2 ack *)
}

let pp_status = function
  | Bivalent -> "bivalent"
  | Decided_value v -> Printf.sprintf "decided(%d)" v

let pp_msg = function
  | Phase1 { id; value } -> Printf.sprintf "phase1{id=%d;v=%d}" id value
  | Phase2 { id; status } ->
      Printf.sprintf "phase2{id=%d;%s}" id (pp_status status)

let msg_ids = function Phase1 _ | Phase2 _ -> 1

let my_id (ctx : Amac.Algorithm.ctx) = Amac.Node_id.unique_exn ctx.id

let init (ctx : Amac.Algorithm.ctx) =
  let mine = Phase1 { id = my_id ctx; value = ctx.input } in
  let state =
    {
      phase = In_phase1;
      r1 = [ mine ];
      r2 = [];
      status = Bivalent;
      witnesses = [];
    }
  in
  (state, [ Amac.Algorithm.Broadcast mine ])

let msg_id = function Phase1 { id; _ } | Phase2 { id; _ } -> id

(* The handlers below walk R1 and then R2 by direct recursion, with no
   [r1 @ r2] and no closures: under the model checker they run on every
   transition, so they allocate only the state they keep. *)

let rec phase2_in id = function
  | [] -> false
  | Phase2 { id = i; _ } :: rest -> i = id || phase2_in id rest
  | Phase1 _ :: rest -> phase2_in id rest

(* W covered: every witness has a phase-2 message somewhere in R1 ∪ R2. *)
let rec covered r1 r2 = function
  | [] -> true
  | id :: rest -> (phase2_in id r1 || phase2_in id r2) && covered r1 r2 rest

let witnesses_covered state = covered state.r1 state.r2 state.witnesses

(* [ids] with [id] added, ascending and without duplicates; an [id]
   already present returns [ids] itself. *)
let rec insert id ids =
  match ids with
  | [] -> [ id ]
  | x :: rest ->
      if id < x then id :: ids
      else if id = x then ids
      else
        let rest' = insert id rest in
        if rest' == rest then ids else x :: rest'

let rec insert_ids ids = function
  | [] -> ids
  | msg :: rest -> insert_ids (insert (msg_id msg) ids) rest

(* W: every id in R1 ∪ R2, ascending. *)
let witnesses state = insert_ids (insert_ids [] state.r1) state.r2

(* The first decided status in [msgs], then in [next]; else the default
   1. *)
let rec first_decided msgs next =
  match msgs with
  | [] -> ( match next with [] -> 1 | _ -> first_decided next [])
  | Phase2 { status = Decided_value v; _ } :: _ -> v
  | (Phase2 { status = Bivalent; _ } | Phase1 _) :: rest ->
      first_decided rest next

(* The final decision rule. [scope] is the erratum switch: the corrected
   algorithm searches R1 ∪ R2 for a decided status; the literal paper text
   searches only R2. In either scope at most one decided value can exist
   (Thm 4.1's argument), so "any decided value, else default 1" is
   well-defined. *)
let decision ~scope state =
  match scope with
  | `R1_and_r2 -> first_decided state.r1 state.r2
  | `R2 -> first_decided state.r2 []

let maybe_finish ~scope state =
  if state.phase = Awaiting_witnesses && witnesses_covered state then begin
    state.phase <- Finished;
    [ Amac.Algorithm.Decide (decision ~scope state) ]
  end
  else []

let on_receive ~scope _ctx state msg =
  match state.phase with
  | In_phase1 ->
      state.r1 <- msg :: state.r1;
      []
  | In_phase2 ->
      state.r2 <- msg :: state.r2;
      []
  | Awaiting_witnesses -> (
      (* Line 21 of Algorithm 1: only phase-2 messages are still collected. *)
      match msg with
      | Phase2 _ ->
          state.r2 <- msg :: state.r2;
          maybe_finish ~scope state
      | Phase1 _ -> [])
  | Finished -> []

(* Evidence against [input] in [msgs]: the other value, or a bivalent
   status. *)
let rec contrary input = function
  | [] -> false
  | Phase1 { value; _ } :: rest -> value <> input || contrary input rest
  | Phase2 { status = Bivalent; _ } :: _ -> true
  | Phase2 { status = Decided_value _; _ } :: rest -> contrary input rest

let compute_status (ctx : Amac.Algorithm.ctx) state =
  if contrary ctx.input state.r1 then Bivalent else Decided_value ctx.input

let on_ack ~scope (ctx : Amac.Algorithm.ctx) state =
  match state.phase with
  | In_phase1 ->
      state.status <- compute_status ctx state;
      state.phase <- In_phase2;
      let mine = Phase2 { id = my_id ctx; status = state.status } in
      state.r2 <- [ mine ];
      [ Amac.Algorithm.Broadcast mine ]
  | In_phase2 ->
      state.phase <- Awaiting_witnesses;
      state.witnesses <- witnesses state;
      maybe_finish ~scope state
  | Awaiting_witnesses | Finished -> []

(* Verification fast path (Algorithm.hooks): hand-written structural
   fingerprint and deep copy. Every field is a mutable scalar or an
   immutable list of immutable messages, so the copy is a record copy. *)
module F = Amac.Fingerprint

let fp_status status acc =
  match status with
  | Bivalent -> F.int 0 acc
  | Decided_value v -> acc |> F.int 1 |> F.int v

let fp_msg msg acc =
  match msg with
  | Phase1 { id; value } -> acc |> F.int 1 |> F.int id |> F.int value
  | Phase2 { id; status } -> acc |> F.int 2 |> F.int id |> fp_status status

let fp_phase phase acc =
  F.int
    (match phase with
    | In_phase1 -> 0
    | In_phase2 -> 1
    | Awaiting_witnesses -> 2
    | Finished -> 3)
    acc

let fingerprint state acc =
  acc |> fp_phase state.phase |> F.list fp_msg state.r1
  |> F.list fp_msg state.r2 |> fp_status state.status
  |> F.list F.int state.witnesses

let clone state = { state with phase = state.phase }

let hooks = Some { Amac.Algorithm.fingerprint; fingerprint_msg = fp_msg; clone }

let make ~scope ~name =
  {
    Amac.Algorithm.name;
    init;
    on_receive = on_receive ~scope;
    on_ack = on_ack ~scope;
    msg_ids;
    hooks;
  }

let algorithm = make ~scope:`R1_and_r2 ~name:"two-phase"

let literal = make ~scope:`R2 ~name:"two-phase-literal"
