(* lib/obs: JSON, metrics registry, span exports — and the determinism
   contract (same seed => byte-identical snapshot and trace export) that
   the whole observability layer promises. *)

let json =
  Alcotest.testable
    (fun ppf t -> Format.pp_print_string ppf (Obs.Json.to_string t))
    Obs.Json.equal

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_render () =
  let open Obs.Json in
  Alcotest.(check string) "compact, ordered"
    {|{"a":1,"b":[true,null,"x"],"c":2.5}|}
    (to_string
       (Obj
          [
            ("a", Int 1);
            ("b", List [ Bool true; Null; String "x" ]);
            ("c", Float 2.5);
          ]));
  Alcotest.(check string) "escapes" {|"a\"b\\c\nd"|}
    (to_string (String "a\"b\\c\nd"));
  Alcotest.(check string) "non-finite floats render null" {|[null,null,null]|}
    (to_string (List [ Float nan; Float infinity; Float neg_infinity ]));
  Alcotest.(check string) "float precision" {|0.1|} (to_string (Float 0.1))

let test_json_parse () =
  let open Obs.Json in
  Alcotest.check json "ints stay ints" (Int 42) (of_string " 42 ");
  Alcotest.check json "floats parse" (Float 2.5) (of_string "2.5");
  Alcotest.check json "exponent is float" (Float 100.0) (of_string "1e2");
  Alcotest.check json "unicode escape" (String "A\xc3\xa9") (of_string {|"Aé"|});
  Alcotest.check json "nested"
    (Obj [ ("xs", List [ Int 1; Obj [ ("y", Bool false) ] ]) ])
    (of_string {|{"xs":[1,{"y":false}]}|});
  Alcotest.(check bool) "garbage rejected" true
    (match of_string "{broken" with
    | exception Failure _ -> true
    | _ -> false);
  Alcotest.(check bool) "trailing junk rejected" true
    (match of_string "1 2" with
    | exception Failure _ -> true
    | _ -> false)

let test_json_roundtrip () =
  let open Obs.Json in
  let value =
    Obj
      [
        ("n", Int (-3));
        ("f", Float 1234.5678);
        ("s", String "tabs\tand \"quotes\"");
        ("l", List [ Null; Bool true; List []; Obj [] ]);
      ]
  in
  Alcotest.check json "parse (render v) = v" value (of_string (to_string value));
  (* equal treats Int n and Float (float n) as the same number: a parser
     may legally read a rendered 3.0 back as 3 *)
  Alcotest.(check bool) "3 = 3.0" true (equal (Int 3) (Float 3.0));
  Alcotest.(check bool) "3 <> 3.5" false (equal (Int 3) (Float 3.5))

(* The parser is strict: each of these was accepted before, and each is
   now a position-annotated failure. *)
let rejects label input =
  match Obs.Json.of_string input with
  | exception Failure msg ->
      let annotated =
        String.starts_with ~prefix:"Json.of_string: " msg
        &&
        match List.rev (String.split_on_char ' ' msg) with
        | offset :: "offset" :: "at" :: _ -> int_of_string_opt offset <> None
        | _ -> false
      in
      Alcotest.(check bool) (Printf.sprintf "%s: %S" label msg) true annotated
  | v ->
      Alcotest.failf "%s: %S parsed as %s" label input (Obs.Json.to_string v)

let test_json_strict_u_escape () =
  rejects "underscore in \\u" {|"\u1_23"|};
  rejects "three hex digits" {|"\u123"|};
  rejects "sign in \\u" {|"\u+123"|};
  Alcotest.check json "four hex digits, either case" (Obs.Json.String "\xc4\xa3\xc3\xa9")
    (Obs.Json.of_string {|"\u0123\u00E9"|})

let test_json_strict_control_bytes () =
  rejects "raw \\001" "\"a\001b\"";
  rejects "raw newline" "\"a\nb\"";
  rejects "raw tab in a key" "{\"a\tb\":1}";
  Alcotest.check json "escaped control bytes parse" (Obs.Json.String "a\001b\n")
    (Obs.Json.of_string {|"a\u0001b\n"|})

let test_json_strict_leading_zeros () =
  rejects "0123" "0123";
  rejects "-01" "-01";
  rejects "00.5" "00.5";
  rejects "leading zero in an array" "[1,01]";
  rejects "bare minus" "-";
  rejects "no fraction digits" "1.";
  rejects "no exponent digits" "1e";
  let open Obs.Json in
  Alcotest.check json "0" (Int 0) (of_string "0");
  Alcotest.check json "-0" (Int 0) (of_string "-0");
  Alcotest.check json "0.5" (Float 0.5) (of_string "0.5");
  Alcotest.check json "-0e+1" (Float (-0.)) (of_string "-0e+1");
  Alcotest.check json "10" (Int 10) (of_string "10")

let test_json_strict_surrogates () =
  let open Obs.Json in
  Alcotest.check json "a pair is one 4-byte sequence"
    (String "\xf0\x9f\x98\x80")
    (of_string {|"\ud83d\ude00"|});
  Alcotest.check json "upper-case pair" (String "x\xf0\x9f\x98\x80y")
    (of_string {|"x\uD83D\uDE00y"|});
  rejects "lone high surrogate" {|"\ud83d"|};
  rejects "high surrogate before a plain byte" {|"\ud83dx"|};
  rejects "high surrogate before a BMP escape" {|"\ud83d\u0041"|};
  rejects "lone low surrogate" {|"\ude00"|}

(* HEAD's renderer before the single-pass writer, kept as the oracle: the
   one added line renders a [Seq] as the list it yields. *)
module Oracle = struct
  open Obs.Json

  let escape_string buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let rec render buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f ->
        if Float.is_finite f then
          Buffer.add_string buf (Printf.sprintf "%.12g" f)
        else Buffer.add_string buf "null"
    | String s -> escape_string buf s
    | Seq s -> render buf (List (List.of_seq s))
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            render buf item)
          items;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (key, value) ->
            if i > 0 then Buffer.add_char buf ',';
            escape_string buf key;
            Buffer.add_char buf ':';
            render buf value)
          fields;
        Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 256 in
    render buf t;
    Buffer.contents buf
end

(* Strings over the bytes the escaper must get right (quote, backslash,
   every control byte, DEL, bytes >= 0x80) mixed with plain ASCII. *)
let gen_json_string =
  QCheck.Gen.(
    string_size ~gen:
      (frequency
         [
           (4, char_range 'a' 'z');
           (1, oneofl [ '"'; '\\'; '\127'; '/' ]);
           (2, char_range '\000' '\031');
           (2, char_range '\128' '\255');
         ])
      (int_bound 12))

let gen_json =
  let open QCheck.Gen in
  let open Obs.Json in
  let leaf =
    frequency
      [
        (1, return Null);
        (1, map (fun b -> Bool b) bool);
        ( 3,
          map
            (fun n -> Int n)
            (oneof [ small_signed_int; int; oneofl [ min_int; max_int; 0 ] ])
        );
        ( 2,
          map
            (fun f -> Float f)
            (oneof
               [
                 float;
                 oneofl [ nan; infinity; neg_infinity; -0.; 0.1; 1e300; 3.0 ];
               ]) );
        (3, map (fun s -> String s) gen_json_string);
      ]
  in
  sized
  @@ fix (fun self size ->
         if size <= 1 then leaf
         else
           let items = list_size (int_bound 5) (self (size / 3)) in
           frequency
             [
               (2, leaf);
               (1, map (fun l -> List l) items);
               (1, map (fun l -> Seq (List.to_seq l)) items);
               ( 1,
                 map
                   (fun l -> Obj l)
                   (list_size (int_bound 5)
                      (pair gen_json_string (self (size / 3)))) );
             ])

let prop_renderer_matches_oracle =
  QCheck.Test.make ~count:500
    ~name:"to_string agrees byte for byte with the old renderer"
    (QCheck.make ~print:Oracle.to_string gen_json)
    (fun t ->
      let buf = Buffer.create 16 in
      Buffer.add_string buf "prefix";
      Obs.Json.to_buffer buf t;
      Obs.Json.to_string t = Oracle.to_string t
      && Buffer.contents buf = "prefix" ^ Oracle.to_string t)

(* Documents past the renderer's 64 KiB spill size: a List of Objs, each
   holding a long Seq, with one String element bigger than the spill size
   (no element boundary inside it) at a random position. Every sink must
   give the oracle's bytes: to_string's chunk list, to_buffer after a
   prefix, and to_channel after a prefix. *)
let gen_big_json =
  let open QCheck.Gen in
  let open Obs.Json in
  let long_seq =
    map (fun l -> Seq (List.to_seq l)) (list_size (int_range 500 2000) gen_json)
  in
  let obj =
    map2 (fun key seq -> Obj [ (key, seq); ("n", Int 1) ]) gen_json_string
      long_seq
  in
  let huge =
    map
      (fun s ->
        String (String.concat "" (List.init 40_000 (fun _ -> s ^ "\\"))))
      gen_json_string
  in
  map3
    (fun objs at huge ->
      let before = List.filteri (fun i _ -> i < at) objs
      and after = List.filteri (fun i _ -> i >= at) objs in
      List (before @ (huge :: after)))
    (list_size (int_range 1 4) obj)
    (int_bound 4) huge

let prop_renderer_spills_like_oracle =
  QCheck.Test.make ~count:20
    ~name:"past the spill size, every sink agrees with the old renderer"
    (QCheck.make
       ~print:(fun t ->
         Printf.sprintf "%d bytes" (String.length (Oracle.to_string t)))
       gen_big_json)
    (fun t ->
      let expected = Oracle.to_string t in
      let buf = Buffer.create 16 in
      Buffer.add_string buf "prefix";
      Obs.Json.to_buffer buf t;
      let file = Filename.temp_file "json" ".json" in
      Out_channel.with_open_bin file (fun oc ->
          output_string oc "prefix";
          Obs.Json.to_channel oc t);
      let written = In_channel.with_open_bin file In_channel.input_all in
      Sys.remove file;
      String.length expected > 65536
      && Obs.Json.to_string t = expected
      && Buffer.contents buf = "prefix" ^ expected
      && written = "prefix" ^ expected)

let test_json_seq () =
  let open Obs.Json in
  let items = [ Int 1; String "a\"b"; Obj [ ("k", Seq Seq.empty) ]; Null ] in
  let seq = Seq (List.to_seq items) in
  Alcotest.(check string) "Seq renders as its List"
    (to_string (List items)) (to_string seq);
  Alcotest.(check string) "a Seq renders twice with the same bytes"
    (to_string seq) (to_string seq);
  Alcotest.(check string) "empty Seq" "[]" (to_string (Seq Seq.empty));
  let counted = ref 0 in
  let lazy_seq =
    Seq (Seq.map (fun i -> incr counted; Int i) (List.to_seq [ 1; 2; 3 ]))
  in
  Alcotest.(check int) "nothing is produced before rendering" 0 !counted;
  Alcotest.(check string) "rendered" "[1,2,3]" (to_string lazy_seq);
  Alcotest.(check bool) "equal forces a Seq against a List" true
    (equal lazy_seq (List [ Int 1; Int 2; Int 3 ]));
  Alcotest.(check bool) "and against another Seq" true
    (equal seq (Seq (List.to_seq items)));
  Alcotest.(check bool) "a shorter Seq differs" false
    (equal lazy_seq (List [ Int 1; Int 2 ]));
  Alcotest.check json "the parser reads a Seq back as a List" (List items)
    (of_string (to_string seq))

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_registry_idempotent () =
  let reg = Obs.Metrics.create () in
  let c1 = Obs.Metrics.counter reg "hits" ~labels:[ ("node", "0") ] in
  (* same name, label order irrelevant after sorting; same instrument *)
  let c2 = Obs.Metrics.counter reg "hits" ~labels:[ ("node", "0") ] in
  Obs.Metrics.inc c1;
  Obs.Metrics.add c2 2;
  Alcotest.(check int) "shared instrument" 3
    (Fixtures.counter_of (Obs.Metrics.snapshot reg)
       ~labels:[ ("node", "0") ] "hits");
  Alcotest.(check bool) "kind clash rejected" true
    (match Obs.Metrics.gauge reg "hits" ~labels:[ ("node", "0") ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_snapshot_ordering () =
  let reg = Obs.Metrics.create () in
  (* registration order deliberately scrambled *)
  Obs.Metrics.inc (Obs.Metrics.counter reg "zeta");
  Obs.Metrics.set (Obs.Metrics.gauge reg "alpha" ~labels:[ ("b", "2") ]) 1.0;
  Obs.Metrics.set (Obs.Metrics.gauge reg "alpha" ~labels:[ ("b", "10") ]) 2.0;
  Obs.Metrics.inc (Obs.Metrics.counter reg "mid");
  let names =
    List.map
      (fun s ->
        s.Obs.Metrics.name
        ^ String.concat ""
            (List.map (fun (k, v) -> "|" ^ k ^ "=" ^ v) s.Obs.Metrics.labels))
      (Obs.Metrics.snapshot reg)
  in
  Alcotest.(check (list string)) "sorted by (name, labels)"
    [ "alpha|b=10"; "alpha|b=2"; "mid"; "zeta" ]
    names

let test_label_order () =
  let reg = Obs.Metrics.create () in
  let c1 = Obs.Metrics.counter reg "hits" ~labels:[ ("b", "1"); ("a", "2") ] in
  let c2 = Obs.Metrics.counter reg "hits" ~labels:[ ("a", "2"); ("b", "1") ] in
  Obs.Metrics.inc c1;
  Obs.Metrics.inc c2;
  match Obs.Metrics.snapshot reg with
  | [ { labels; value = Counter 2; _ } ] ->
      Alcotest.(check (list (pair string string))) "labels sorted by key"
        [ ("a", "2"); ("b", "1") ]
        labels
  | _ -> Alcotest.fail "expected one counter reading 2"

let test_observe_max () =
  let reg = Obs.Metrics.create () in
  let g = Obs.Metrics.gauge reg "depth" in
  let value () =
    match Fixtures.find (Obs.Metrics.snapshot reg) "depth" with
    | Some { value = Gauge v; _ } -> v
    | _ -> Alcotest.fail "gauge missing"
  in
  List.iter (Obs.Metrics.observe_max g) [ 3.0; 7.0; 5.0 ];
  Alcotest.(check (float 0.0)) "high-water mark" 7.0 (value ());
  Obs.Metrics.set g 2.0;
  Alcotest.(check (float 0.0)) "set overrides" 2.0 (value ());
  Obs.Metrics.observe_max g 2.0;
  Alcotest.(check (float 0.0)) "equal value is no rise" 2.0 (value ())

(* A snapshot is a value: later updates do not reach one already taken. *)
let test_snapshot_is_a_copy () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg "events" in
  let g = Obs.Metrics.gauge reg "depth" in
  let h = Obs.Metrics.histogram reg "lat" ~buckets:[ 1.0 ] in
  Obs.Metrics.add c 10;
  Obs.Metrics.set g 3.0;
  Obs.Metrics.observe h 0.5;
  let before = Obs.Metrics.snapshot reg in
  Obs.Metrics.add c 5;
  Obs.Metrics.set g 7.0;
  Obs.Metrics.observe h 4.0;
  ignore (Obs.Metrics.counter reg "late");
  let after = Obs.Metrics.snapshot reg in
  Alcotest.(check int) "counter before" 10 (Fixtures.counter_of before "events");
  Alcotest.(check int) "counter after" 15 (Fixtures.counter_of after "events");
  (match Fixtures.find before "depth" with
  | Some { value = Gauge v; _ } ->
      Alcotest.(check (float 0.0)) "gauge before" 3.0 v
  | _ -> Alcotest.fail "gauge missing");
  (match Fixtures.find before "lat" with
  | Some { value = Histogram_summary s; _ } ->
      Alcotest.(check int) "histogram before" 1 s.count
  | _ -> Alcotest.fail "histogram missing");
  Alcotest.(check bool) "later registration absent before" true
    (Fixtures.find before "late" = None && Fixtures.find after "late" <> None)

let test_histogram_sample () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram reg "lat" ~buckets:[ 1.0; 10.0 ] in
  List.iter (Obs.Metrics.observe h) [ 0.5; 2.0; 3.0 ];
  match Fixtures.find (Obs.Metrics.snapshot reg) "lat" with
  | Some { value = Obs.Metrics.Histogram_summary s; _ } ->
      Alcotest.(check int) "count" 3 s.Obs.Metrics.count;
      Alcotest.(check (float 1e-9)) "sum" 5.5 s.Obs.Metrics.sum;
      Alcotest.(check bool) "p50 present" true (s.Obs.Metrics.p50 <> None);
      Alcotest.(check (list (pair (float 0.0) int)))
        "buckets"
        [ (1.0, 1); (10.0, 2); (infinity, 0) ]
        s.Obs.Metrics.buckets
  | _ -> Alcotest.fail "histogram sample missing"

let test_metrics_json_roundtrip () =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.add (Obs.Metrics.counter reg "c" ~labels:[ ("k", "v") ]) 2;
  Obs.Metrics.set (Obs.Metrics.gauge reg "g") 1.5;
  Obs.Metrics.observe (Obs.Metrics.histogram reg "h") 3.0;
  let j = Obs.Metrics.to_json (Obs.Metrics.snapshot reg) in
  Alcotest.check json "to_json parses back" j
    (Obs.Json.of_string (Obs.Json.to_string j))

(* ------------------------------------------------------------------ *)
(* Span exports                                                        *)
(* ------------------------------------------------------------------ *)

let sample_events =
  Obs.Span.
    [
      Complete
        {
          name = "broadcast";
          cat = "mac";
          start_time = 0;
          duration = 5;
          node = 0;
          args = [ ("msg", Obs.Json.String "m0") ];
        };
      Instant
        {
          name = "deliver";
          cat = "mac";
          time = 2;
          node = 1;
          args = [ ("from", Obs.Json.Int 0) ];
        };
      Instant
        { name = "decide"; cat = "consensus"; time = 9; node = 1; args = [] };
    ]

let test_span_jsonl_roundtrip () =
  let exported = Obs.Span.to_jsonl sample_events in
  Alcotest.(check int) "one line per event" 3
    (List.length
       (List.filter
          (fun l -> l <> "")
          (String.split_on_char '\n' exported)));
  Alcotest.(check bool) "same multiset" true
    (Obs.Span.same_multiset sample_events (Obs.Span.of_jsonl exported))

let test_span_chrome_roundtrip () =
  let exported = Obs.Span.to_chrome sample_events in
  let parsed = Obs.Json.of_string exported in
  (match Obs.Json.member "traceEvents" parsed with
  | Some (Obs.Json.List events) ->
      Alcotest.(check int) "all events exported" 3 (List.length events);
      List.iter
        (fun e ->
          (* the trace_event schema fields Perfetto requires *)
          List.iter
            (fun field ->
              Alcotest.(check bool)
                ("has " ^ field)
                true
                (Obs.Json.member field e <> None))
            [ "ph"; "name"; "cat"; "ts"; "pid"; "tid" ])
        events
  | _ -> Alcotest.fail "no traceEvents array");
  Alcotest.(check bool) "same multiset" true
    (Obs.Span.same_multiset sample_events (Obs.Span.of_chrome exported))

let test_span_rejects_foreign () =
  Alcotest.(check bool) "unsupported ph rejected" true
    (match
       Obs.Span.of_chrome
         {|{"traceEvents":[{"ph":"M","name":"meta","cat":"c","ts":0,"pid":1,"tid":0}]}|}
     with
    | exception Failure _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Trace -> spans                                                      *)
(* ------------------------------------------------------------------ *)

let test_trace_export_spans () =
  let entries =
    Amac.Trace.
      [
        Broadcast_start { time = 0; node = 0; ids = 1; msg = "m0" };
        Delivered { time = 2; node = 1; sender = 0; msg = "m0"; cause = -1 };
        Acked { time = 5; node = 0 };
        Broadcast_start { time = 6; node = 1; ids = 1; msg = "m1" };
        Crashed { time = 8; node = 1 };
        Decided { time = 9; node = 0; value = 1 };
      ]
  in
  let time_of = function
    | Obs.Span.Complete c -> c.start_time
    | Obs.Span.Instant i -> i.time
  in
  let events =
    List.sort
      (fun a b -> compare (time_of a, a) (time_of b, b))
      (Amac.Trace_export.spans entries)
  in
  let completes =
    List.filter_map
      (function Obs.Span.Complete c -> Some c | Obs.Span.Instant _ -> None)
      events
  in
  (match completes with
  | [ acked; crashed ] ->
      Alcotest.(check int) "acked span duration" 5 acked.Obs.Span.duration;
      Alcotest.(check int) "acked span node" 0 acked.Obs.Span.node;
      Alcotest.(check bool) "acked span not marked unacked" true
        (List.assoc_opt "unacked" acked.Obs.Span.args = None);
      (* node 1's broadcast never acked: the crash closes it, flagged *)
      Alcotest.(check int) "crash closes at crash time" 2
        crashed.Obs.Span.duration;
      Alcotest.(check bool) "flagged unacked" true
        (List.assoc_opt "unacked" crashed.Obs.Span.args
        = Some (Obs.Json.Bool true))
  | _ -> Alcotest.fail "expected exactly two complete spans");
  let instant_names =
    List.filter_map
      (function
        | Obs.Span.Instant i -> Some i.Obs.Span.name | Obs.Span.Complete _ -> None)
      events
  in
  Alcotest.(check (list string))
    "instants in order"
    [ "deliver"; "crash"; "decide" ]
    instant_names

(* ------------------------------------------------------------------ *)
(* End-to-end determinism                                              *)
(* ------------------------------------------------------------------ *)

let instrumented_run seed =
  let reg = Obs.Metrics.create () in
  let n = 9 in
  let result =
    Consensus.Runner.run (Consensus.Wpaxos.make ())
      ~topology:(Amac.Topology.grid ~width:3 ~height:3)
      ~scheduler:(Amac.Scheduler.random (Amac.Rng.create seed) ~fack:4)
      ~inputs:(Consensus.Runner.inputs_alternating ~n)
      ~record_trace:true ~obs:reg
  in
  let snapshot = Obs.Metrics.snapshot reg in
  let events = Amac.Trace_export.spans result.outcome.trace in
  (result, snapshot, events)

let test_determinism () =
  let _, snap1, events1 = instrumented_run 11 in
  let _, snap2, events2 = instrumented_run 11 in
  Alcotest.(check string) "byte-identical metrics JSON"
    (Obs.Json.to_string (Obs.Metrics.to_json snap1))
    (Obs.Json.to_string (Obs.Metrics.to_json snap2));
  Alcotest.(check string) "byte-identical JSONL export"
    (Obs.Span.to_jsonl events1) (Obs.Span.to_jsonl events2);
  Alcotest.(check string) "byte-identical Chrome export"
    (Obs.Span.to_chrome events1) (Obs.Span.to_chrome events2);
  (* and a different seed actually changes something *)
  let _, _, events3 = instrumented_run 12 in
  Alcotest.(check bool) "different seed, different trace" false
    (Obs.Span.to_jsonl events1 = Obs.Span.to_jsonl events3)

let test_engine_instrumentation () =
  let result, snapshot, events = instrumented_run 11 in
  let counter = Fixtures.counter_of snapshot in
  let labels =
    [ ("algorithm", "wpaxos"); ("scheduler", "random(4)") ]
  in
  Alcotest.(check int) "deliveries counter matches outcome"
    result.outcome.Amac.Engine.deliveries
    (counter ~labels "engine_deliveries_total");
  Alcotest.(check int) "events counter matches outcome"
    result.outcome.Amac.Engine.events_processed
    (counter ~labels "engine_events_total");
  let per_node =
    List.init 9 (fun i ->
        counter
          ~labels:(("node", string_of_int i) :: labels)
          "engine_broadcasts_total")
  in
  Alcotest.(check int) "per-node broadcasts sum to the outcome total"
    result.outcome.Amac.Engine.broadcasts
    (List.fold_left ( + ) 0 per_node);
  (* every broadcast span in the export corresponds to a real broadcast *)
  let span_count =
    List.length
      (List.filter
         (function Obs.Span.Complete _ -> true | Obs.Span.Instant _ -> false)
         events)
  in
  Alcotest.(check int) "one complete span per broadcast"
    result.outcome.Amac.Engine.broadcasts span_count;
  (* checker verdict gauges, written by the runner *)
  match Fixtures.find snapshot "checker_safe" ~labels:[ ("algorithm", "wpaxos") ] with
  | Some { value = Obs.Metrics.Gauge 1.0; _ } -> ()
  | Some _ -> Alcotest.fail "checker_safe gauge wrong"
  | None -> Alcotest.fail "checker_safe gauge missing"

(* ------------------------------------------------------------------ *)
(* The recorders as folds over the engine's event stream              *)
(* ------------------------------------------------------------------ *)

(* A chatty probe with string messages: each node broadcasts its input at
   boot, then rebroadcasts what it hears (discarded while busy), sends on
   every ack and relays injected payloads, [budget] sends per incarnation
   in all, so every run drains. It decides on its third delivery. *)
type chatter = { mutable sent : int; mutable heard : int }

let budget = 4

let send st msg =
  if st.sent >= budget then []
  else begin
    st.sent <- st.sent + 1;
    [ Amac.Algorithm.Broadcast msg ]
  end

let chatter : (chatter, string) Amac.Algorithm.t =
  {
    name = "chatter";
    init =
      (fun ctx ->
        let st = { sent = 0; heard = 0 } in
        (st, send st (string_of_int ctx.input)));
    on_receive =
      (fun _ctx st msg ->
        st.heard <- st.heard + 1;
        (if st.heard = 3 then [ Amac.Algorithm.Decide 3 ] else [])
        @ send st msg);
    on_ack = (fun _ctx st -> send st "ack");
    msg_ids = (fun _ -> 1);
    hooks = None;
  }

let chatter_inject ~now:_ ~payload _ctx st = send st (string_of_int payload)

let count p l = List.length (List.filter p l)

let dag_count dag p =
  count
    (fun v -> p v.Obs.Provenance.kind)
    (List.init (Obs.Provenance.length dag) (Obs.Provenance.get dag))

(* Every unreliable neighbor hears every broadcast, at its ack. *)
let flood_unreliable scheduler =
  {
    scheduler with
    Amac.Scheduler.unreliable_plan =
      Some
        (fun ~now:_ ~sender:_ ~candidates ~ack_at ->
          List.map (fun c -> (c, ack_at)) candidates);
  }

let test_every_path_reaches_every_recorder () =
  (* One run down every engine path at once, with all three recorders on:
     each recorder must mirror the outcome counter of each path. *)
  let n = 4 in
  let plan =
    [
      Fault.Link_drop { edge = (1, 2); from_ = 0; until = 6 };
      Fault.Stutter { node = 3; from_ = 0; until = 4 };
      Fault.Crash { node = 0; at = 4 };
      Fault.Recover { node = 0; at = 9 };
    ]
  in
  let faults = Fault.compile ~n plan in
  (* Byzantine node 2: silent towards 3 before t=6, forging afterwards. *)
  let substitute ~now ~sender ~receiver msg =
    if sender <> 2 || receiver <> 3 then Some msg
    else if now < 6 then None
    else Some (msg ^ "!")
  in
  let scheduler = flood_unreliable (Amac.Scheduler.fixed ~delay:2) in
  let dag = Obs.Provenance.create () and reg = Obs.Metrics.create () in
  let o =
    Amac.Engine.run chatter
      ~topology:(Amac.Topology.line n)
      ~unreliable:(Amac.Topology.of_edges ~n [ (0, 2); (1, 3) ])
      ~scheduler ~inputs:[| 0; 1; 0; 1 |] ~crashes:faults.crashes
      ~recoveries:faults.recoveries ?drop:faults.drop ?stutter:faults.stutter
      ~substitute ~stop_when_all_decided:false ~provenance:dag
      ~record_trace:true ~obs:reg
  in
  (* The fixture must reach every path, or the equalities prove nothing. *)
  List.iter
    (fun (what, v) ->
      Alcotest.(check bool) (what ^ " exercised") true (v > 0))
    [
      ("stale drop", o.dropped);
      ("link drop", o.link_dropped);
      ("stutter", o.stuttered);
      ("discard", o.discarded);
      ("unreliable delivery", o.unreliable_deliveries);
      ("suppression", o.suppressed);
      ("substitution", o.substituted);
      ("recovery", o.incarnations.(0));
    ];
  let snap = Obs.Metrics.snapshot reg in
  let labels =
    [ ("algorithm", "chatter"); ("scheduler", scheduler.Amac.Scheduler.name) ]
  in
  let counter ?(extra = []) name =
    Fixtures.counter_of snap ~labels:(extra @ labels) name
  in
  Alcotest.(check int) "stale drops" o.dropped
    (counter ~extra:[ ("reason", "stale") ] "engine_drops_total");
  Alcotest.(check int) "link drops" o.link_dropped
    (counter ~extra:[ ("reason", "link") ] "engine_drops_total");
  Alcotest.(check int) "stutters" o.stuttered (counter "engine_stutters_total");
  Alcotest.(check int) "discards" o.discarded (counter "engine_discards_total");
  Alcotest.(check int) "unreliable deliveries" o.unreliable_deliveries
    (counter "engine_unreliable_deliveries_total");
  Alcotest.(check int) "deliveries" o.deliveries
    (counter "engine_deliveries_total");
  Alcotest.(check int) "recoveries" o.incarnations.(0)
    (counter "engine_recoveries_total");
  (match Fixtures.find snap ~labels "engine_end_time" with
  | Some { value = Obs.Metrics.Gauge t; _ } ->
      Alcotest.(check int) "end-time gauge" o.end_time (int_of_float t)
  | Some _ | None -> Alcotest.fail "engine_end_time gauge missing");
  let trace = o.trace in
  Alcotest.(check int) "Link_dropped entries" o.link_dropped
    (count (function Amac.Trace.Link_dropped _ -> true | _ -> false) trace);
  Alcotest.(check int) "Suppressed entries" o.suppressed
    (count (function Amac.Trace.Suppressed _ -> true | _ -> false) trace);
  Alcotest.(check int) "Substituted entries" o.substituted
    (count (function Amac.Trace.Substituted _ -> true | _ -> false) trace);
  Alcotest.(check int) "Stuttered actions" o.stuttered
    (List.fold_left
       (fun acc -> function
         | Amac.Trace.Stuttered { actions; _ } -> acc + actions | _ -> acc)
       0 trace);
  Alcotest.(check int) "one Deliver vertex per delivery" o.deliveries
    (dag_count dag (function Obs.Provenance.Deliver _ -> true | _ -> false));
  Alcotest.(check int) "one Boot vertex per init and recovery"
    (n + Array.fold_left ( + ) 0 o.incarnations)
    (dag_count dag (function Obs.Provenance.Boot _ -> true | _ -> false));
  Alcotest.(check (list string)) "well-formed DAG" [] (Obs.Provenance.check dag)

(* One random mix of every engine hook, drawn from [seed]. Every hook is a
   pure function of its arguments, so the mix can be run twice. *)
let hook_mix seed =
  let rng = Amac.Rng.create seed in
  let n = 3 + Amac.Rng.int rng 5 in
  let fack = 1 + Amac.Rng.int rng 4 in
  let topology = Amac.Topology.random_connected rng ~n ~extra_edges:2 in
  let coin () = Amac.Rng.int rng 2 = 0 in
  let crashes =
    if coin () then
      let at = 1 + Amac.Rng.int rng (4 * fack) in
      [ Fault.Crash { node = Amac.Rng.int rng n; at } ]
    else []
  in
  let plan =
    Mcheck.Fuzz.gen_faults rng ~n ~fack ~crashes
      (if coin () then Some Mcheck.Fuzz.default_fault_profile else None)
  in
  let faults = Fault.compile ~n plan in
  let missing =
    List.concat
      (List.init n (fun u ->
           List.filter_map
             (fun v ->
               if v > u && not (Amac.Topology.has_edge topology u v) then
                 Some (u, v)
               else None)
             (List.init n Fun.id)))
  in
  let unreliable =
    if missing <> [] && coin () then
      Some (Amac.Topology.of_edges ~n (List.filter (fun _ -> coin ()) missing))
    else None
  in
  let alpha = if coin () then Some (Amac.Rng.int rng 3) else None in
  (* a fresh random stream per run, so every run sees one schedule *)
  let scheduler () =
    let s = Amac.Scheduler.random (Amac.Rng.create (seed + 1)) ~fack in
    let s = if unreliable = None then s else flood_unreliable s in
    match alpha with
    | Some alpha -> Amac.Scheduler.interference ~alpha s
    | None -> s
  in
  let forge = Amac.Rng.int rng 7 and mute = Amac.Rng.int rng 7 in
  let substitute =
    if coin () then
      Some
        (fun ~now ~sender ~receiver msg ->
          match (now + (3 * sender) + (5 * receiver)) mod 7 with
          | k when k = mute -> None
          | k when k = forge -> Some (msg ^ "!")
          | _ -> Some msg)
    else None
  in
  let topo_deltas =
    if coin () then
      Topo_gen.churn ~seed topology ~events:(Amac.Rng.int rng 4) ~start:1
        ~gap:fack
    else []
  in
  let injections =
    List.init (Amac.Rng.int rng 4) (fun i ->
        (Amac.Rng.int rng n, 1 + Amac.Rng.int rng (6 * fack), i))
  in
  let inputs = Array.init n (fun i -> i mod 2) in
  fun ?provenance ?obs ~record_trace () ->
    Amac.Engine.run chatter ~topology ?unreliable
      ~scheduler:(scheduler ())
      ~inputs ~crashes:faults.crashes
      ~recoveries:faults.recoveries ?drop:faults.drop
      ?stutter:faults.stutter ?substitute ~topo_deltas ~injections
      ~on_inject:chatter_inject ~stop_when_all_decided:false ~max_time:400
      ?provenance ?obs ~record_trace

let prop_recorders_observational =
  QCheck.Test.make ~count:150
    ~name:"recorders are observational; trace causes agree with the DAG"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let run = hook_mix seed in
      let bare = run ~record_trace:false () in
      let dag = Obs.Provenance.create () in
      let full =
        run ~provenance:dag ~obs:(Obs.Metrics.create ()) ~record_trace:true ()
      in
      let vertex = Obs.Provenance.get dag in
      (* the trace's Delivered entries and the DAG's Deliver vertices are
         the same deliveries, in the same order *)
      let delivered =
        List.filter_map
          (function
            | Amac.Trace.Delivered { time; sender; cause; _ } ->
                Some (time, sender, cause)
            | _ -> None)
          full.trace
      in
      let deliver_vertices =
        List.filter_map
          (fun (v : Obs.Provenance.vertex) ->
            match v.kind with
            | Deliver { sender } -> Some (v.time, sender, v.cause)
            | _ -> None)
          (List.init (Obs.Provenance.length dag) (Obs.Provenance.get dag))
      in
      { full with trace = [] } = bare
      && Obs.Provenance.check dag = []
      && delivered = deliver_vertices
      && List.for_all
           (fun (time, sender, cause) ->
             let b = vertex cause in
             b.kind = Obs.Provenance.Broadcast
             && b.node = sender && b.time <= time)
           delivered)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "render" `Quick test_json_render;
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "strict: \\u takes four hex digits" `Quick
            test_json_strict_u_escape;
          Alcotest.test_case "strict: raw control bytes rejected" `Quick
            test_json_strict_control_bytes;
          Alcotest.test_case "strict: leading zeros rejected" `Quick
            test_json_strict_leading_zeros;
          Alcotest.test_case "strict: surrogate pairs" `Quick
            test_json_strict_surrogates;
          Alcotest.test_case "lazy arrays" `Quick test_json_seq;
          QCheck_alcotest.to_alcotest prop_renderer_matches_oracle;
          QCheck_alcotest.to_alcotest prop_renderer_spills_like_oracle;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "idempotent registration" `Quick
            test_registry_idempotent;
          Alcotest.test_case "snapshot ordering" `Quick test_snapshot_ordering;
          Alcotest.test_case "label order" `Quick test_label_order;
          Alcotest.test_case "observe_max" `Quick test_observe_max;
          Alcotest.test_case "snapshot is a copy" `Quick
            test_snapshot_is_a_copy;
          Alcotest.test_case "histogram sample" `Quick test_histogram_sample;
          Alcotest.test_case "json round-trip" `Quick
            test_metrics_json_roundtrip;
        ] );
      ( "span",
        [
          Alcotest.test_case "jsonl round-trip" `Quick test_span_jsonl_roundtrip;
          Alcotest.test_case "chrome round-trip" `Quick
            test_span_chrome_roundtrip;
          Alcotest.test_case "foreign ph rejected" `Quick
            test_span_rejects_foreign;
          Alcotest.test_case "trace export spans" `Quick
            test_trace_export_spans;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "engine instrumentation" `Quick
            test_engine_instrumentation;
        ] );
      ( "recorders",
        [
          Alcotest.test_case "every engine path reaches every recorder" `Quick
            test_every_path_reaches_every_recorder;
          QCheck_alcotest.to_alcotest prop_recorders_observational;
        ] );
    ]
