(* Trace utilities, including the ASCII timeline renderer. *)

let contains_substring haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let entries =
  Amac.Trace.
    [
      Broadcast_start { time = 0; node = 0; ids = 1; msg = "m0" };
      Broadcast_start { time = 0; node = 1; ids = 1; msg = "m1" };
      Delivered { time = 1; node = 1; sender = 0; msg = "m0"; cause = -1 };
      Delivered { time = 1; node = 0; sender = 1; msg = "m1"; cause = -1 };
      Acked { time = 1; node = 0 };
      Acked { time = 1; node = 1 };
      Discarded { time = 2; node = 0; msg = "m2" };
      Decided { time = 3; node = 0; value = 1 };
      Crashed { time = 4; node = 1 };
    ]

let test_accessors () =
  Alcotest.(check int) "time_of" 3
    (Amac.Trace.time_of (Decided { time = 3; node = 0; value = 1 }))

(* One entry of every kind, at time = its position: [time_of] reads each,
   and [pp] gives each its own line. *)
let test_every_kind () =
  let all =
    Amac.Trace.
      [
        Broadcast_start { time = 0; node = 0; ids = 1; msg = "m" };
        Delivered { time = 1; node = 1; sender = 0; msg = "m"; cause = -1 };
        Acked { time = 2; node = 0 };
        Decided { time = 3; node = 0; value = 1 };
        Discarded { time = 4; node = 0; msg = "m" };
        Crashed { time = 5; node = 1 };
        Recovered { time = 6; node = 1; incarnation = 1 };
        Link_dropped { time = 7; node = 1; sender = 0 };
        Stuttered { time = 8; node = 0; actions = 2 };
        Suppressed { time = 9; node = 1; sender = 0 };
        Substituted { time = 10; node = 1; sender = 0; msg = "forged" };
      ]
  in
  Alcotest.(check (list int)) "time_of" (List.init 11 Fun.id)
    (List.map Amac.Trace.time_of all);
  let lines =
    Format.asprintf "%a" Amac.Trace.pp all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  Alcotest.(check int) "one line each" 11 (List.length lines);
  Alcotest.(check int) "all distinct" 11
    (List.length (List.sort_uniq String.compare lines))

let test_pp_entries () =
  let rendered = Format.asprintf "%a" Amac.Trace.pp entries in
  Alcotest.(check bool) "nonempty" true (String.length rendered > 50);
  Alcotest.(check bool) "mentions DECIDED" true
    (contains_substring rendered "DECIDED");
  Alcotest.(check bool) "delivery names its sender" true
    (contains_substring rendered "node 1 received from 0")

let test_timeline () =
  let grid = Amac.Trace.timeline ~n:2 entries in
  let lines = String.split_on_char '\n' grid in
  (* header + 5 distinct times + trailing "" *)
  Alcotest.(check int) "line count" 7 (List.length lines);
  let row_for t =
    List.find
      (fun l ->
        String.length l > 4 && String.trim (String.sub l 0 4) = string_of_int t)
      lines
  in
  (* t=0: both broadcast *)
  Alcotest.(check bool) "t0 shows BB" true (contains_substring (row_for 0) "BB");
  (* t=1: receive outranks ack in the collision *)
  Alcotest.(check bool) "t1 shows rr" true (contains_substring (row_for 1) "rr");
  (* t=2: discard; t=3: decide; t=4: crash *)
  Alcotest.(check bool) "t2 shows ~" true (String.contains (row_for 2) '~');
  Alcotest.(check bool) "t3 shows D" true (String.contains (row_for 3) 'D');
  Alcotest.(check bool) "t4 shows X" true (String.contains (row_for 4) 'X')

(* Same-tick collisions on ONE node's cell: the documented precedence is
   decisions/crashes/recoveries (rank 5) over broadcasts (4) over
   discard/link-drop/stutter (3) over receives (2) over acks (1),
   independent of the order the colliding entries appear in. *)
let cell_at grid t =
  let lines = String.split_on_char '\n' grid in
  let row =
    List.find
      (fun l ->
        String.length l > 4 && String.trim (String.sub l 0 4) = string_of_int t)
      lines
  in
  (* "   t  <cells>": the single node-0 cell sits at offset 6. *)
  row.[6]

let check_collision name expected entries =
  List.iter
    (fun entries ->
      let grid = Amac.Trace.timeline ~n:1 entries in
      Alcotest.(check char) name expected (cell_at grid 7))
    [ entries; List.rev entries ]

let test_timeline_collisions () =
  let open Amac.Trace in
  let deliver = Delivered { time = 7; node = 0; sender = 0; msg = "m"; cause = -1 } in
  let ack = Acked { time = 7; node = 0 } in
  let broadcast = Broadcast_start { time = 7; node = 0; ids = 1; msg = "m" } in
  let decide = Decided { time = 7; node = 0; value = 1 } in
  let crash = Crashed { time = 7; node = 0 } in
  let stutter = Stuttered { time = 7; node = 0; actions = 1 } in
  check_collision "receive beats ack" 'r' [ deliver; ack ];
  check_collision "broadcast beats receive" 'B' [ broadcast; deliver ];
  check_collision "decide beats broadcast" 'D' [ decide; broadcast ];
  check_collision "crash beats broadcast" 'X' [ crash; broadcast ];
  check_collision "stutter beats receive" 's' [ stutter; deliver ];
  check_collision "broadcast beats stutter" 'B' [ broadcast; stutter ];
  check_collision "decide beats everything" 'D'
    [ ack; deliver; stutter; broadcast; decide ]

let test_timeline_from_real_run () =
  let outcome =
    Amac.Engine.run Consensus.Two_phase.algorithm
      ~topology:(Amac.Topology.clique 3)
      ~scheduler:Amac.Scheduler.synchronous ~record_trace:true
      ~inputs:[| 0; 1; 0 |]
  in
  let grid = Amac.Trace.timeline ~n:3 outcome.trace in
  Alcotest.(check bool) "renders" true (String.length grid > 20);
  Alcotest.(check bool) "has decisions" true (String.contains grid 'D')

(* A Byzantine substitution is rendered on its own: the forged payload, not
   the sender's broadcast string, lands on both the Substituted and the
   Delivered entry, while honest deliveries share the broadcast's string
   and so cost no extra [pp_msg] call. *)
let test_forged_payload_rendered () =
  let announce : (unit, string) Amac.Algorithm.t =
    {
      name = "announce";
      init =
        (fun ctx ->
          ((), [ Amac.Algorithm.Broadcast (Printf.sprintf "m%d" ctx.input) ]));
      on_receive = (fun _ () _ -> []);
      on_ack = (fun ctx () -> [ Amac.Algorithm.Decide ctx.input ]);
      msg_ids = (fun _ -> 0);
      hooks = None;
    }
  in
  let substitute ~now:_ ~sender ~receiver msg =
    if sender = 0 && receiver = 2 then Some (msg ^ "!") else Some msg
  in
  let renders = ref 0 in
  let pp_msg m =
    incr renders;
    "<" ^ m ^ ">"
  in
  let o =
    Amac.Engine.run announce
      ~topology:(Amac.Topology.clique 3)
      ~scheduler:(Amac.Scheduler.fixed ~delay:1) ~inputs:[| 0; 1; 2 |]
      ~substitute ~record_trace:true ~pp_msg
  in
  Alcotest.(check int) "one substitution" 1 o.substituted;
  let received node sender =
    List.filter_map
      (function
        | Amac.Trace.Delivered { node = n; sender = s; msg; _ }
          when n = node && s = sender ->
            Some msg
        | _ -> None)
      o.trace
  in
  Alcotest.(check (list string)) "forged Delivered" [ "<m0!>" ] (received 2 0);
  Alcotest.(check (list string)) "honest Delivered" [ "<m0>" ] (received 1 0);
  Alcotest.(check (list string)) "forged Substituted" [ "<m0!>" ]
    (List.filter_map
       (function
         | Amac.Trace.Substituted { node = 2; sender = 0; msg; _ } -> Some msg
         | _ -> None)
       o.trace);
  Alcotest.(check int) "each broadcast rendered once, plus the forgery"
    (o.broadcasts + o.substituted) !renders

let () =
  Alcotest.run "trace"
    [
      ( "unit",
        [
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "every entry kind" `Quick test_every_kind;
          Alcotest.test_case "pp" `Quick test_pp_entries;
          Alcotest.test_case "timeline" `Quick test_timeline;
          Alcotest.test_case "timeline collisions" `Quick
            test_timeline_collisions;
          Alcotest.test_case "timeline from run" `Quick
            test_timeline_from_real_run;
          Alcotest.test_case "forged payload rendered" `Quick
            test_forged_payload_rendered;
        ] );
    ]
