(* CI fuzz gate (see .github/workflows/ci.yml). Every campaign runs through
   Mcheck.Campaign; at most one mode may be set.

   mode                campaign             gate
   ------------------  -------------------  -------------------------------
   (none)              Mcheck.Fuzz          two-phase (cliques), wpaxos,
                                            flood-gather, flood-paxos and
                                            ben-or clean; two-phase-literal
                                            caught; Explore clean on the
                                            3-clique
   MCHECK_FAULTS=1     Mcheck.Fuzz with     two-phase (crash+stutter),
                       fault plans          wpaxos, wpaxos-rtx-off safe;
                                            two-phase agreement break and
                                            unhardened wpaxos liveness
                                            failure caught
   MCHECK_BYZ=1        Byz.Fuzz             byz-consensus clean at
                                            f=(n-1)/3; equivocation split
                                            of two-phase caught
   MCHECK_SMR=1        Smr_fuzz             replicated log safe
   MCHECK_LIFECYCLE=1  Smr_fuzz, lifecycle  replicated log safe; the four
                       draws on             Lifecycle scenarios safe, live
   MCHECK_SHARD=1      Shard_fuzz           sharded log safe
   MCHECK_MULTIHOP=1   Multihop_fuzz        hardened wpaxos safe

   MCHECK_ITERS (an integer >= 1, default 200) and MCHECK_SEED (an integer,
   default 1) size and seed every campaign. MCHECK_ARTIFACT=FILE receives
   a failing case: shrunk, with its metrics snapshot, where the campaign
   shrinks; the failing draw otherwise. --jobs N spreads each campaign over
   N domains with a byte-identical report; --fingerprint fast|marshal keys
   the explorer's seen-table (same verdict either way).

   Exit status 0 = every gate held; 1 = a violation, a missed self-test or
   an uncaught exception (printed with its replay settings, so a crash in
   the harness never reads as a green CI job); 2 = malformed input. *)

let usage_error msg =
  prerr_endline ("mcheck_fuzz: " ^ msg);
  exit 2

let int_env name ~default ~valid ~expected =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
      match int_of_string_opt s with
      | Some v when valid v -> v
      | _ -> usage_error (Printf.sprintf "%s=%S is not %s" name s expected))

let iterations =
  int_env "MCHECK_ITERS" ~default:200
    ~valid:(fun n -> n >= 1)
    ~expected:"an integer >= 1"

let seed =
  int_env "MCHECK_SEED" ~default:1 ~valid:(fun _ -> true) ~expected:"an integer"

let artifact = Sys.getenv_opt "MCHECK_ARTIFACT"

let jobs, fingerprint =
  let jobs = ref 1 and fingerprint = ref `Fast in
  let usage () =
    usage_error "usage: mcheck_fuzz [--jobs N] [--fingerprint fast|marshal]"
  in
  let rec parse = function
    | [] -> ()
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> jobs := n
        | Some _ | None -> usage ());
        parse rest
    | "--fingerprint" :: mode :: rest ->
        (match mode with
        | "fast" -> fingerprint := `Fast
        | "marshal" -> fingerprint := `Marshal
        | _ -> usage ());
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (!jobs, !fingerprint)

let failures = ref 0

(* Replay a counterexample's case through an instrumented registry so the
   report carries what the engine actually did (drops, stutters, ack
   latencies), not just its decision log. Deterministic: the replay is
   schedule-driven. *)
let snapshot instrument case =
  let reg = Obs.Metrics.create () in
  instrument reg case;
  Obs.Metrics.render (Obs.Metrics.snapshot reg)

(* A failing case as reported on stdout and in the artifact. *)
let print_failure fmt header (campaign : _ Mcheck.Campaign.t) cx metrics =
  Format.fprintf fmt "%s@.%a@." header campaign.pp cx;
  Option.iter
    (Format.fprintf fmt "--- metrics (shrunk case) ---@.%s--- end metrics ---@.")
    metrics

let save_artifact title (campaign : _ Mcheck.Campaign.t) cx metrics =
  match artifact with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      print_failure
        (Format.formatter_of_out_channel oc)
        (Printf.sprintf "%s (seed %d, iteration %d)" title seed
           cx.Mcheck.Campaign.iteration)
        campaign cx metrics;
      close_out oc;
      Printf.printf "wrote %s to %s\n%!"
        (if Option.is_none campaign.shrink then "failing draw"
         else "shrunk counterexample")
        path

(* The one report: a gate's campaign must come back clean; otherwise the
   violation, its metrics snapshot and the artifact. [ticks] prints a
   progress line every 25 iterations, keeping long campaigns visibly
   alive. *)
let gate ?label ?(clean = "clean") ?(ticks = false) ?instrument name
    (campaign : _ Mcheck.Campaign.t) =
  let label = Option.value label ~default:(Printf.sprintf "%-14s" name) in
  let started = Sys.time () in
  let progress i =
    if ticks && (i + 1) mod 25 = 0 then
      Printf.printf "fuzz %s ... %d/%d (%.1fs)\n%!" label (i + 1) iterations
        (Sys.time () -. started)
  in
  let outcome =
    Mcheck.Campaign.run ~jobs ~progress campaign ~iterations ~seed
  in
  match outcome.counterexample with
  | None ->
      Printf.printf "fuzz %s %d iterations %s (%.1fs)\n%!" label
        outcome.iterations_run clean
        (Sys.time () -. started)
  | Some cx ->
      incr failures;
      let metrics = Option.map (fun i -> snapshot i cx.case) instrument in
      print_failure Format.std_formatter
        (Printf.sprintf "fuzz %s VIOLATION (seed %d):" label seed)
        campaign cx metrics;
      save_artifact (name ^ " violation") campaign cx metrics

(* A self-test: the campaign must find a violation, handed to [found]. *)
let expect ?(iterations = iterations) name ~missing campaign found =
  match
    (Mcheck.Campaign.run ~jobs campaign ~iterations ~seed).counterexample
  with
  | Some cx -> found cx
  | None ->
      incr failures;
      Printf.printf "fuzz %s: MISSED the %s in %d iterations\n%!" name missing
        iterations

let instrument config algorithm obs case =
  ignore (Mcheck.Fuzz.run_case ~obs config algorithm case)

let fuzz ?(config = Mcheck.Fuzz.default) name algorithm =
  gate name
    (Mcheck.Fuzz.campaign config algorithm)
    ~instrument:(instrument config algorithm)

(* Two-phase is a single-hop algorithm (Sec 4.1): on multi-hop topologies
   agreement genuinely fails, so fuzz it on cliques only. *)
let clique_only = { Mcheck.Fuzz.default with kinds = [ Mcheck.Fuzz.Clique ] }

let default_mode () =
  fuzz ~config:clique_only "two-phase" Consensus.Two_phase.algorithm;
  fuzz "wpaxos" (Consensus.Wpaxos.make ());
  fuzz "flood-gather" (Consensus.Flood_gather.make ());
  fuzz "flood-paxos" (Consensus.Flood_paxos.make ());
  fuzz "ben-or" (Consensus.Ben_or.make ~seed:7 ());
  (* Self-test: the harness must detect a real bug. *)
  expect "two-phase-literal" ~missing:"known agreement bug"
    (Mcheck.Fuzz.campaign clique_only Consensus.Two_phase.literal)
    (fun cx ->
      Printf.printf
        "fuzz two-phase-literal: caught the erratum at iteration %d, shrunk \
         to n=%d (expected)\n%!"
        cx.iteration cx.case.n);
  let stats =
    Mcheck.Explore.explore
      { Mcheck.Explore.default with keying = fingerprint }
      Consensus.Two_phase.algorithm
      ~topology:(Amac.Topology.clique 3) ~inputs:[| 0; 1; 1 |]
  in
  if stats.Mcheck.Explore.violations = [] && not stats.Mcheck.Explore.truncated
  then
    Printf.printf "explore two-phase n=3: %d states, %d transitions, clean\n%!"
      stats.Mcheck.Explore.states stats.Mcheck.Explore.transitions
  else begin
    incr failures;
    Printf.printf "explore two-phase n=3: UNEXPECTED (truncated=%b)\n%!"
      stats.Mcheck.Explore.truncated
  end

let faults_mode () =
  let profile = Mcheck.Fuzz.default_fault_profile in
  let fault_config = { Mcheck.Fuzz.default with faults = Some profile } in
  (* What each algorithm's safety actually survives (DESIGN.md "Fault
     model"): wPAXOS rests on quorum intersection, indifferent to lost or
     partitioned deliveries, so it is gated under the full profile.
     Two-phase's agreement instead leans on the MAC ack-implies-delivered
     contract — exactly what loss and partitions break — and amnesiac
     recovery makes any voter vote twice; so two-phase is gated under
     crash+stutter plans only, and the fuzzer CATCHING its loss/recovery
     violations is a self-test below. All gates are fixed-seed fuzz runs,
     deterministic by construction. Liveness is judged only in the last
     self-test — under faults it is conditional. *)
  let crash_stutter_only =
    {
      fault_config with
      kinds = [ Mcheck.Fuzz.Clique ];
      faults =
        Some
          {
            profile with
            max_recoveries = 0;
            max_loss_windows = 0;
            max_partitions = 0;
          };
    }
  in
  fuzz ~config:crash_stutter_only "two-phase" Consensus.Two_phase.algorithm;
  fuzz ~config:fault_config "wpaxos" (Consensus.Wpaxos.make ());
  fuzz ~config:fault_config "wpaxos-rtx-off"
    (Consensus.Wpaxos.make ~retransmit:false ());
  (* Self-test: under the full profile (loss, partitions, amnesiac
     recovery) two-phase genuinely loses agreement; the fault fuzzer must
     find and shrink such a violation. *)
  expect "two-phase+faults"
    ~missing:"known fault-induced agreement violation"
    (Mcheck.Fuzz.campaign
       { fault_config with kinds = [ Mcheck.Fuzz.Clique ] }
       Consensus.Two_phase.algorithm)
    (fun cx ->
      Printf.printf
        "fuzz two-phase+faults: caught the fault-induced agreement violation \
         at iteration %d, shrunk to n=%d with %d fault events (expected)\n%!"
        cx.iteration cx.case.n
        (List.length cx.case.faults));
  (* Self-test: with termination checking on, the fuzzer must find a
     schedule in which a lost delivery permanently silences the unhardened
     protocol — and shrink it. *)
  let liveness_config =
    {
      fault_config with
      check_termination = true;
      max_time = 200_000 (* far past any plan horizon: silence is final *);
    }
  in
  let unhardened = Consensus.Wpaxos.make ~retransmit:false () in
  let campaign = Mcheck.Fuzz.campaign liveness_config unhardened in
  expect "wpaxos-unhardened" ~missing:"expected liveness failure" campaign
    (fun cx ->
      Printf.printf
        "fuzz wpaxos-unhardened: caught a liveness failure at iteration %d, \
         shrunk to n=%d with %d fault events (expected)\n%!"
        cx.iteration cx.case.n
        (List.length cx.case.faults);
      save_artifact "wpaxos-unhardened liveness counterexample" campaign cx
        (Some (snapshot (instrument liveness_config unhardened) cx.case)))

let byz_mode () =
  (* Gate: the Byzantine-tolerant protocol must survive every generated
     strategy inside its advertised tolerance. cap_f keeps the drawn
     adversary at f = (n-1)/3; n >= 4 so the budget is never empty. *)
  let gate_config =
    { Byz.Fuzz.default with min_n = 4; max_n = 7; cap_f = true }
  in
  let byz_consensus = Consensus.Byz_consensus.make ~seed:7 () in
  gate "byz-consensus" ~label:"byz-consensus" ~clean:"clean at f=(n-1)/3"
    (Byz.Fuzz.campaign gate_config byz_consensus Byz.Adapters.byz_consensus)
    ~instrument:(fun obs case ->
      ignore
        (Byz.Fuzz.run_case ~obs gate_config byz_consensus
           Byz.Adapters.byz_consensus case));
  (* Self-test: the adversary must earn its keep. An equivocation-only
     campaign (no silence, no replay, no forgery — the strategy wins or
     loses on per-recipient payload mutation alone) against two-phase must
     find a strategy that splits the HONEST decision, and shrink it. *)
  let equivocation_only =
    {
      Byz.Model.default_profile with
      Byz.Model.allow_silence = false;
      allow_replay = false;
      allow_forge = false;
      allow_drop_own = false;
    }
  in
  let campaign =
    Byz.Fuzz.campaign
      {
        Byz.Fuzz.default with
        profile = equivocation_only;
        agreement_only = true;
      }
      Consensus.Two_phase.algorithm Byz.Adapters.two_phase
  in
  expect ~iterations:(max iterations 500) "two-phase+byz"
    ~missing:"expected equivocation agreement split" campaign (fun cx ->
      Format.printf
        "fuzz two-phase+byz: equivocation split caught at iteration %d, \
         shrunk to n=%d with %d tamper(s) (expected):@.%a@."
        cx.iteration cx.case.n
        (List.length cx.case.strategy.Byz.Model.tampers)
        campaign.pp cx)

let smr_mode ~lifecycle () =
  gate ~ticks:true
    (if lifecycle then "smr-lifecycle" else "smr-log")
    (Smr_fuzz.campaign { Smr_fuzz.default with lifecycle });
  (* In lifecycle mode the canonical scenario suite runs too: each of the
     four production runs (rolling restart, scale-up, crash-during-reconfig,
     restart-from-snapshot) must stay safe AND re-achieve liveness at the
     fixed seed. *)
  if lifecycle then
    List.iter
      (fun scenario ->
        let o = Lifecycle.run ~seed scenario in
        if o.Lifecycle.live then
          Printf.printf "scenario %-17s LIVE  %s\n%!"
            (Lifecycle.name scenario) o.Lifecycle.detail
        else begin
          incr failures;
          Printf.printf "scenario %-17s STUCK %s\n%!"
            (Lifecycle.name scenario) o.Lifecycle.detail;
          List.iter
            (fun v ->
              Printf.printf "  VIOLATION: %s\n%!" (Smr_checker.to_string v))
            o.Lifecycle.result.Workload.violations
        end)
      Lifecycle.all

let modes =
  [
    ("FAULTS", faults_mode);
    ("BYZ", byz_mode);
    ("SMR", smr_mode ~lifecycle:false);
    ("LIFECYCLE", smr_mode ~lifecycle:true);
    ( "SHARD",
      fun () ->
        gate ~ticks:true "smr-shard" (Shard_fuzz.campaign Shard_fuzz.default)
    );
    ( "MULTIHOP",
      fun () ->
        gate ~ticks:true "multihop"
          (Multihop_fuzz.campaign Multihop_fuzz.default) );
  ]

let () =
  let mode =
    match
      List.filter
        (fun (name, _) -> Sys.getenv_opt ("MCHECK_" ^ name) = Some "1")
        modes
    with
    | [] -> None
    | [ m ] -> Some m
    | several ->
        usage_error
          ("more than one mode set: "
          ^ String.concat " "
              (List.map (fun (name, _) -> "MCHECK_" ^ name ^ "=1") several))
  in
  Printexc.record_backtrace true;
  (try
     match mode with Some (_, run) -> run () | None -> default_mode ()
   with exn ->
     incr failures;
     let at, exn =
       match exn with
       | Mcheck.Campaign.Raised { iteration; exn } ->
           (Printf.sprintf ", iteration %d" iteration, exn)
       | exn -> ("", exn)
     in
     Printf.printf
       "mcheck_fuzz: UNCAUGHT EXCEPTION (replay with MCHECK_SEED=%d \
        MCHECK_ITERS=%d%s%s): %s\n\
        %s\n\
        %!"
       seed iterations
       (match mode with Some (name, _) -> " MCHECK_" ^ name ^ "=1" | None -> "")
       at (Printexc.to_string exn)
       (Printexc.get_backtrace ()));
  exit (if !failures = 0 then 0 else 1)
