
let require_nonempty name = function
  | [] -> invalid_arg (name ^ ": empty list")
  | xs -> xs

(* NaN guard: a single NaN sample must not poison an aggregate (degenerate
   inputs show up in bench sweeps where some seed never decided). NaNs are
   dropped; an all-NaN list is rejected like an empty one. *)
let require_numeric name xs =
  let xs = require_nonempty name xs in
  match List.filter (fun x -> not (Float.is_nan x)) xs with
  | [] -> invalid_arg (name ^ ": all-NaN input")
  | ys -> ys

let mean xs =
  let xs = require_nonempty "Stats.mean" xs in
  List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let minimum xs =
  match require_nonempty "Stats.minimum" xs with
  | first :: rest -> List.fold_left min first rest
  | [] -> assert false

let maximum xs =
  match require_nonempty "Stats.maximum" xs with
  | first :: rest -> List.fold_left max first rest
  | [] -> assert false

let percentile p xs =
  if Float.is_nan p || p < 0.0 || p > 100.0 then
    invalid_arg "Stats.percentile: p out of range";
  let xs = require_numeric "Stats.percentile" xs in
  let sorted = List.sort Float.compare xs in
  let count = List.length sorted in
  let rank =
    int_of_float (ceil (p /. 100.0 *. float_of_int count)) - 1
  in
  List.nth sorted (max 0 (min (count - 1) rank))

let median xs = percentile 50.0 xs

let stddev xs =
  let xs = require_numeric "Stats.stddev" xs in
  let m = mean xs in
  let sq_sum = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
  (* max 0: rounding can push the variance of a constant list epsilon below
     zero, and sqrt of that is NaN. *)
  sqrt (Float.max 0.0 (sq_sum /. float_of_int (List.length xs)))

module Table = struct
  type t = {
    title : string;
    columns : string list;
    mutable rows : string list list;  (* reversed *)
    mutable notes : string list;  (* reversed *)
    mutable meta : (string * string) list;  (* reversed *)
    mutable series : (string * float list) list;  (* reversed *)
  }

  let create ~title ~columns =
    { title; columns; rows = []; notes = []; meta = []; series = [] }

  let add_row t cells =
    if List.length cells <> List.length t.columns then
      invalid_arg
        (Printf.sprintf "Stats.Table.add_row: %d cells for %d columns"
           (List.length cells) (List.length t.columns));
    t.rows <- cells :: t.rows

  let add_note t note = t.notes <- note :: t.notes

  let set_meta t key value = t.meta <- (key, value) :: t.meta

  let add_series t ~name values = t.series <- (name, values) :: t.series

  let render t =
    let rows = List.rev t.rows in
    let widths =
      List.mapi
        (fun i header ->
          List.fold_left
            (fun acc row -> max acc (String.length (List.nth row i)))
            (String.length header) rows)
        t.columns
    in
    let pad width s = s ^ String.make (max 0 (width - String.length s)) ' ' in
    let render_row cells =
      "  " ^ String.concat "  " (List.map2 pad widths cells)
    in
    let rule =
      "  " ^ String.concat "  " (List.map (fun w -> String.make w '-') widths)
    in
    let buf = Buffer.create 256 in
    Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
    Buffer.add_string buf (render_row t.columns ^ "\n");
    Buffer.add_string buf (rule ^ "\n");
    List.iter (fun row -> Buffer.add_string buf (render_row row ^ "\n")) rows;
    List.iter
      (fun note -> Buffer.add_string buf ("  note: " ^ note ^ "\n"))
      (List.rev t.notes);
    Buffer.contents buf

  let print t = print_string (render t)

  let json_of_series (name, values) =
    let finite = List.filter Float.is_finite values in
    let stat f = if finite = [] then Obs.Json.Null else Obs.Json.Float (f finite) in
    Obs.Json.Obj
      [
        ("name", Obs.Json.String name);
        ("count", Obs.Json.Int (List.length values));
        ("mean", stat mean);
        ("p50", stat (percentile 50.0));
        ("p99", stat (percentile 99.0));
        ("min", stat minimum);
        ("max", stat maximum);
        ("values", Obs.Json.List (List.map (fun v -> Obs.Json.Float v) values));
      ]

  let to_json t =
    let strings xs = Obs.Json.List (List.map (fun s -> Obs.Json.String s) xs) in
    Obs.Json.Obj
      [
        ("title", Obs.Json.String t.title);
        ("columns", strings t.columns);
        ( "rows",
          Obs.Json.List (List.rev_map (fun row -> strings row) t.rows) );
        ("notes", strings (List.rev t.notes));
        ( "meta",
          Obs.Json.Obj
            (List.rev_map (fun (k, v) -> (k, Obs.Json.String v)) t.meta) );
        ("series", Obs.Json.List (List.rev_map json_of_series t.series));
      ]
end
