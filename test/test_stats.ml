let feq = Alcotest.float 1e-9

let test_mean () =
  Alcotest.check feq "mean" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  Alcotest.check feq "singleton" 7.0 (Stats.mean [ 7.0 ])

let test_min_max () =
  Alcotest.check feq "min" 1.0 (Stats.minimum [ 3.0; 1.0; 2.0 ]);
  Alcotest.check feq "max" 3.0 (Stats.maximum [ 3.0; 1.0; 2.0 ])

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "p50" 50.0 (Stats.percentile 50.0 xs);
  Alcotest.check feq "p99" 99.0 (Stats.percentile 99.0 xs);
  Alcotest.check feq "p0 -> min" 1.0 (Stats.percentile 0.0 xs);
  Alcotest.check feq "p100 -> max" 100.0 (Stats.percentile 100.0 xs);
  Alcotest.check feq "median alias" 50.0 (Stats.median xs)

let test_stddev () =
  Alcotest.check feq "constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  Alcotest.check feq "spread" 2.0 (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_empty_raises () =
  Alcotest.check_raises "mean" (Invalid_argument "Stats.mean: empty list")
    (fun () -> ignore (Stats.mean []));
  Alcotest.check_raises "percentile range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile 101.0 [ 1.0 ]))

(* Degenerate bench inputs (a seed that never decided) surface as NaN
   samples; the aggregates must drop them rather than return NaN. *)
let test_nan_guards () =
  Alcotest.check feq "percentile drops NaN" 5.0
    (Stats.percentile 50.0 [ nan; 5.0; nan ]);
  Alcotest.check feq "median drops NaN" 4.0
    (Stats.median [ 3.0; nan; 5.0; 4.0 ]);
  Alcotest.check feq "stddev drops NaN" 0.0 (Stats.stddev [ nan; 5.0 ]);
  Alcotest.(check bool) "stddev of constant never NaN" false
    (Float.is_nan (Stats.stddev [ 0.1; 0.1; 0.1 ]));
  Alcotest.check_raises "all-NaN percentile"
    (Invalid_argument "Stats.percentile: all-NaN input") (fun () ->
      ignore (Stats.percentile 50.0 [ nan; nan ]));
  Alcotest.check_raises "all-NaN stddev"
    (Invalid_argument "Stats.stddev: all-NaN input") (fun () ->
      ignore (Stats.stddev [ nan ]));
  Alcotest.check_raises "NaN p rejected"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile nan [ 1.0 ]))

let test_histogram () =
  let h = Obs.Histogram.create ~buckets:[ 1.0; 2.0; 5.0; 10.0 ] in
  List.iter (Obs.Histogram.observe h) [ 0.5; 1.5; 3.0; 3.0; 7.0; 42.0 ];
  Alcotest.(check int) "count" 6 (Obs.Histogram.count h);
  Alcotest.check feq "sum" 57.0 (Obs.Histogram.sum h);
  Alcotest.(check (list (pair feq int)))
    "bucket counts"
    [ (1.0, 1); (2.0, 1); (5.0, 2); (10.0, 1); (infinity, 1) ]
    (Obs.Histogram.bucket_counts h);
  (* Quantiles are bucket estimates: only their bracketing is promised. *)
  let q50 = Obs.Histogram.quantile h 0.5 in
  Alcotest.(check bool) "q50 inside (2, 5]" true (q50 > 2.0 && q50 <= 5.0);
  Alcotest.check feq "q0 clamps to min" 0.5 (Obs.Histogram.quantile h 0.0);
  Alcotest.check feq "q1 clamps to max" 42.0
    (Obs.Histogram.quantile h 1.0)

let test_histogram_nan_and_errors () =
  let h = Obs.Histogram.create ~buckets:[ 1.0 ] in
  Obs.Histogram.observe h nan;
  Alcotest.(check int) "NaN not counted" 0 (Obs.Histogram.count h);
  Alcotest.(check bool) "empty quantile raises" true
    (match Obs.Histogram.quantile h 0.5 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "unsorted buckets rejected" true
    (match Obs.Histogram.create ~buckets:[ 2.0; 1.0 ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_table_json () =
  let table =
    Stats.Table.create ~title:"demo" ~columns:[ "name"; "value" ]
  in
  Stats.Table.add_row table [ "alpha"; "1" ];
  Stats.Table.add_note table "a footnote";
  Stats.Table.set_meta table "fack" "8";
  Stats.Table.add_series table ~name:"lat" [ 3.0; 1.0; 2.0 ];
  let json = Stats.Table.to_json table in
  let open Obs.Json in
  Alcotest.(check string) "title" "demo"
    (match member "title" json with Some (String s) -> s | _ -> "?");
  Alcotest.(check bool) "rows mirror the printed cells" true
    (member "rows" json
    = Some (List [ List [ String "alpha"; String "1" ] ]));
  Alcotest.(check bool) "meta kept" true
    (match member "meta" json with
    | Some (Obj kvs) -> List.assoc_opt "fack" kvs = Some (String "8")
    | _ -> false);
  (match member "series" json with
  | Some (List [ series ]) ->
      Alcotest.(check bool) "series name" true
        (member "name" series = Some (String "lat"));
      Alcotest.(check bool) "series p50" true
        (match member "p50" series with Some (Float v) -> v = 2.0 | _ -> false)
  | _ -> Alcotest.fail "expected one series");
  (* the export is parseable and round-trips *)
  Alcotest.(check bool) "parse round-trip" true
    (equal json (of_string (to_string json)))

let test_table () =
  let table =
    Stats.Table.create ~title:"demo" ~columns:[ "name"; "value" ]
  in
  Stats.Table.add_row table [ "alpha"; "1" ];
  Stats.Table.add_row table [ "b"; "22" ];
  Stats.Table.add_note table "a footnote";
  let rendered = Stats.Table.render table in
  Alcotest.(check bool) "has title" true
    (String.length rendered > 0
    && String.sub rendered 0 11 = "== demo ==\n");
  (* Columns aligned: every data row has the same 'value' column offset. *)
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check int) "line count (title+hdr+rule+2rows+note+trailing)" 7
    (List.length lines);
  Alcotest.(check bool) "note present" true
    (List.exists (fun l -> l = "  note: a footnote") lines)

let test_table_arity () =
  let table = Stats.Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "cell count"
    (Invalid_argument "Stats.Table.add_row: 1 cells for 2 columns") (fun () ->
      Stats.Table.add_row table [ "only" ])

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile stays within [min, max]" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 40) (float_bound_exclusive 100.0)) (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let v = Stats.percentile p xs in
      v >= Stats.minimum xs && v <= Stats.maximum xs)

let prop_mean_bounds =
  QCheck.Test.make ~name:"mean stays within [min, max]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 40) (float_bound_exclusive 100.0))
    (fun xs ->
      let m = Stats.mean xs in
      m >= Stats.minimum xs -. 1e-9 && m <= Stats.maximum xs +. 1e-9)

let () =
  Alcotest.run "stats"
    [
      ( "unit",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "min/max" `Quick test_min_max;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "empty raises" `Quick test_empty_raises;
          Alcotest.test_case "NaN guards" `Quick test_nan_guards;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "histogram NaN/errors" `Quick
            test_histogram_nan_and_errors;
          Alcotest.test_case "table rendering" `Quick test_table;
          Alcotest.test_case "table arity" `Quick test_table_arity;
          Alcotest.test_case "table JSON" `Quick test_table_json;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_percentile_bounds;
          QCheck_alcotest.to_alcotest prop_mean_bounds;
        ] );
    ]
