module F = Amac.Fingerprint
module Itbl = Smr.Itbl

(* Command-space carving, continuing Smr's reconfiguration encoding
   (mask bits 0-29, uid 30-39, joint 40, final 41): bit 42 marks a batch
   container minted by the wrapper, bit 43 a flush marker that never
   enters any log. Plain client commands must stay below bit 40. *)
let batch_bit = 1 lsl 42

let flush_bit = 1 lsl 43

let max_groups = 64

let is_batch v = v land batch_bit <> 0

let flush_cmd ~group =
  if group < 0 || group >= max_groups then
    invalid_arg "Shard.flush_cmd: group outside 0..63";
  flush_bit lor group

let group_of_key ~groups key =
  let r = key mod groups in
  if r < 0 then r + groups else r

(* One wire slot carries every group's pending traffic: a broadcast is a
   group-tagged bundle, the sharded analogue of Smr's own
   component-list messages. This is the no-head-of-line-blocking
   guarantee AND the scaling mechanism — the MAC wire is the scarce
   per-node resource (one broadcast in flight per node), so giving each
   group a private slot would throttle every group to 1/G of the wire
   cadence; sharing the slot lets G groups run protocol rounds at full
   cadence concurrently. Entries are ordered by group, at most one per
   group. *)
type msg = (int * Smr.msg) list

type state = {
  node : int;
  inners : Smr.state array;
  (* Per-group transport outboxes. An inner instance broadcasts at most
     one message at a time (its [sending] flag stays up until the wrapper
     routes the MAC ack back to it), so a slot holds at most one. *)
  outbox : Smr.msg option array;
  mutable in_flight : int list;
      (** groups with traffic in the bundle on the wire; [] = idle *)
  pending : int list array;  (** staged batch buffer, newest first *)
  pending_n : int array;
  applied_flat : int list array;  (** client-cmd apply stream, newest first *)
}

type handle = {
  h_groups : int;
  h_batch : int;
  mutable inner_algs : (Smr.state, Smr.msg) Amac.Algorithm.t array;
  mutable inner_handles : Smr.handle array;
  h_route : int Itbl.t;  (** client cmd -> owning group *)
  mutable h_batches : int list option array;
      (** [seq] -> [Some cmds] (oldest first) of batch value
          [batch_bit lor seq]; slot 0 and unminted slots are [None] *)
  mutable batch_seq : int;
  h_submitted : unit Itbl.t;
  h_committed : unit Itbl.t;
  w_registry : state Itbl.t;  (** node -> current incarnation *)
}

let inner h g =
  if g < 0 || g >= h.h_groups then invalid_arg "Shard.inner: bad group";
  h.inner_handles.(g)

let submitted h = Itbl.length h.h_submitted

let committed h = Itbl.length h.h_committed

let batches h = h.batch_seq - 1

(* Sequence numbers are dense from 1, so the table is indexed by them.
   Flipping bit 42 sends a plain value (bit 42 clear), or one with a
   higher bit set, out of range. *)
let expand h v =
  let seq = v lxor batch_bit in
  if seq >= 1 && seq < h.batch_seq then h.h_batches.(seq) else None

let applied_cmds h ~node ~group =
  if group < 0 || group >= h.h_groups then
    invalid_arg "Shard.applied_cmds: bad group";
  match Itbl.find_opt h.w_registry node with
  | Some st -> List.rev st.applied_flat.(group)
  | None -> []

let route h ~key ~cmd =
  if cmd < 1 || cmd land lnot ((1 lsl 40) - 1) <> 0 then
    invalid_arg "Shard.route: commands must be positive and below bit 40";
  let g = group_of_key ~groups:h.h_groups key in
  Itbl.replace h.h_route cmd g;
  g

(* Inner actions -> outbox; Decides (never emitted by Smr, but the
   wrapper should not eat them) pass through. *)
let absorb st g actions =
  List.filter_map
    (function
      | Amac.Algorithm.Broadcast m ->
          if Option.is_some st.outbox.(g) then
            invalid_arg "Shard: a group broadcast twice before its ack";
          st.outbox.(g) <- Some m;
          None
      | Amac.Algorithm.Decide v -> Some (Amac.Algorithm.Decide v))
    actions

(* Put everything pending on the wire, if it is free: every full outbox
   contributes its message (groups in ascending order) to one tagged
   bundle. No group ever waits behind another's backlog, and the wire
   cadence — one broadcast, one ack — is paid once for all G groups
   instead of once per group. *)
let drain st =
  if st.in_flight <> [] then []
  else begin
    let bundle = ref [] and tagged = ref [] in
    let groups = Array.length st.inners in
    for i = groups - 1 downto 0 do
      match st.outbox.(i) with
      | None -> ()
      | Some m ->
          st.outbox.(i) <- None;
          tagged := i :: !tagged;
          bundle := (i, m) :: !bundle
    done;
    match !bundle with
    | [] -> []
    | b ->
        st.in_flight <- !tagged;
        [ Amac.Algorithm.Broadcast b ]
  end

let flush h st g ~now ctx =
  match List.rev st.pending.(g) with
  | [] -> []
  | cmds ->
      st.pending.(g) <- [];
      st.pending_n.(g) <- 0;
      let value =
        match cmds with
        | [ c ] -> c (* a lone command needs no container *)
        | _ ->
            let seq = h.batch_seq in
            if seq >= Array.length h.h_batches then begin
              let grown = Array.make (2 * seq) None in
              Array.blit h.h_batches 0 grown 0 seq;
              h.h_batches <- grown
            end;
            h.h_batches.(seq) <- Some cmds;
            h.batch_seq <- seq + 1;
            batch_bit lor seq
      in
      absorb st g (Smr.injector h.inner_handles.(g) ~now ~payload:value ctx st.inners.(g))

let injector h ~now ~payload ctx st =
  let decides =
    if payload land flush_bit <> 0 then begin
      let g = payload land (flush_bit - 1) in
      if g < 0 || g >= h.h_groups then
        invalid_arg "Shard.injector: flush marker for unknown group";
      flush h st g ~now ctx
    end
    else
      match Itbl.find_opt h.h_route payload with
      | None ->
          invalid_arg "Shard.injector: unrouted payload (call Shard.route first)"
      | Some g ->
          Itbl.replace h.h_submitted payload ();
          st.pending.(g) <- payload :: st.pending.(g);
          st.pending_n.(g) <- st.pending_n.(g) + 1;
          if st.pending_n.(g) >= h.h_batch then flush h st g ~now ctx else []
  in
  decides @ drain st

let fingerprint st acc =
  acc |> F.int st.node |> F.list F.int st.in_flight
  |> F.array Smr.fingerprint_state st.inners
  |> F.array
       (fun slot -> F.list Smr.fingerprint_msg (Option.to_list slot))
       st.outbox
  |> F.array (F.list F.int) st.pending
  |> F.array F.int st.pending_n
  |> F.array (F.list F.int) st.applied_flat

let fingerprint_msg m acc =
  F.list (fun (g, p) acc -> acc |> F.int g |> Smr.fingerprint_msg p) m acc

let clone st =
  {
    st with
    inners = Array.map Smr.clone_state st.inners;
    outbox = Array.copy st.outbox;
    pending = Array.copy st.pending;
    pending_n = Array.copy st.pending_n;
    applied_flat = Array.copy st.applied_flat;
  }

let pp_msg m =
  String.concat "|"
    (List.map (fun (g, p) -> Printf.sprintf "g%d:%s" g (Smr.pp_msg p)) m)

let make ?window ?(batch = 1) ?on_apply ?members_of ?clock ~groups () =
  if groups < 1 || groups > max_groups then
    invalid_arg "Shard.make: groups outside 1..64";
  if batch < 1 then invalid_arg "Shard.make: batch < 1";
  let h =
    {
      h_groups = groups;
      h_batch = batch;
      inner_algs = [||];
      inner_handles = [||];
      h_route = Itbl.create 4096;
      h_batches = Array.make 1024 None;
      batch_seq = 1;
      h_submitted = Itbl.create 4096;
      h_committed = Itbl.create 4096;
      w_registry = Itbl.create 8;
    }
  in
  let mk g =
    (* Apply interception: expand batches into client commands, record
       the flattened per-(node, group) stream (dies with the
       incarnation, mirroring the inner applied semantics) and fire the
       user callback once per client command. *)
    let commit node c =
      Itbl.replace h.h_committed c ();
      match on_apply with Some f -> f ~node ~group:g ~cmd:c | None -> ()
    in
    let on_apply_inner ~node ~index:_ ~cmd =
      let batch =
        if is_batch cmd then (
          match expand h cmd with
          | Some _ as batch -> batch
          | None -> invalid_arg "Shard: applied a batch this handle never minted")
        else None
      in
      (match Itbl.find_opt h.w_registry node with
      | Some st ->
          let flat = st.applied_flat.(g) in
          st.applied_flat.(g) <-
            (match batch with
            | Some cmds -> List.fold_left (fun acc c -> c :: acc) flat cmds
            | None -> cmd :: flat)
      | None -> ());
      match batch with
      | Some cmds -> List.iter (commit node) cmds
      | None -> commit node cmd
    in
    let members = Option.map (fun f -> f g) members_of in
    Smr.make ?window ~on_apply:on_apply_inner ?members ?clock ()
  in
  let rec build g acc =
    if g >= groups then List.rev acc else build (g + 1) (mk g :: acc)
  in
  let pairs = build 0 [] in
  h.inner_algs <- Array.of_list (List.map fst pairs);
  h.inner_handles <- Array.of_list (List.map snd pairs);
  let init ctx =
    let node = Amac.Node_id.unique_exn ctx.Amac.Algorithm.id in
    let rec init_inners g acc =
      if g >= groups then List.rev acc
      else init_inners (g + 1) (h.inner_algs.(g).Amac.Algorithm.init ctx :: acc)
    in
    let pairs = Array.of_list (init_inners 0 []) in
    let st =
      {
        node;
        inners = Array.map fst pairs;
        outbox = Array.make groups None;
        in_flight = [];
        pending = Array.make groups [];
        pending_n = Array.make groups 0;
        applied_flat = Array.make groups [];
      }
    in
    Itbl.replace h.w_registry node st;
    let decides = ref [] in
    Array.iteri (fun g (_, acts) -> decides := !decides @ absorb st g acts) pairs;
    (st, !decides @ drain st)
  in
  let on_receive ctx st m =
    let decides =
      List.concat_map
        (fun (g, p) ->
          absorb st g
            (h.inner_algs.(g).Amac.Algorithm.on_receive ctx st.inners.(g) p))
        m
    in
    decides @ drain st
  in
  let on_ack ctx st =
    (* One MAC ack settles the whole bundle: free the wire first, then
       let every contributing group's inner instance observe its ack (in
       group order) — their follow-ups land in the NEXT bundle. *)
    let acked = st.in_flight in
    st.in_flight <- [];
    let decides =
      List.concat_map
        (fun g ->
          absorb st g (h.inner_algs.(g).Amac.Algorithm.on_ack ctx st.inners.(g)))
        acked
    in
    decides @ drain st
  in
  let alg =
    {
      Amac.Algorithm.name =
        Printf.sprintf "smr-shard(g=%d,k=%d)" groups batch;
      init;
      on_receive;
      on_ack;
      msg_ids =
        (fun m ->
          List.fold_left
            (fun acc (g, p) -> acc + h.inner_algs.(g).Amac.Algorithm.msg_ids p)
            0 m);
      hooks = Some { Amac.Algorithm.fingerprint; fingerprint_msg; clone };
    }
  in
  (alg, h)

let check h =
  let svs =
    List.init h.h_groups (fun g ->
        let ih = h.inner_handles.(g) in
        let nodes = Smr.nodes ih in
        {
          Smr_checker.sv_group = g;
          sv_views = List.map (Smr.view ih) nodes;
          sv_applied_cmds =
            List.map (fun node -> (node, applied_cmds h ~node ~group:g)) nodes;
        })
  in
  let submitted g cmd =
    Smr.was_submitted h.inner_handles.(g) cmd
    || Smr.was_reconfig h.inner_handles.(g) cmd
  in
  Smr_checker.check_shard_views ~submitted ~expand:(expand h) svs
