type instrument =
  | I_counter of int ref
  | I_gauge of float ref
  | I_histogram of Histogram.t

type registry = {
  tbl : (string * (string * string) list, instrument) Hashtbl.t;
}

type counter = int ref

type gauge = float ref

type histogram = Histogram.t

let create () = { tbl = Hashtbl.create 64 }

let sort_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let register reg ~name ~labels ~kind ~make ~extract =
  let labels = sort_labels labels in
  let key = (name, labels) in
  match Hashtbl.find_opt reg.tbl key with
  | Some instrument -> (
      match extract instrument with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf
               "Metrics: %s already registered with a different kind (wanted \
                %s)"
               name kind))
  | None ->
      let instrument, v = make () in
      Hashtbl.replace reg.tbl key instrument;
      v

let counter reg ?(labels = []) name =
  register reg ~name ~labels ~kind:"counter"
    ~make:(fun () ->
      let r = ref 0 in
      (I_counter r, r))
    ~extract:(function I_counter r -> Some r | _ -> None)

let inc c = incr c

let add c n = c := !c + n

let gauge reg ?(labels = []) name =
  register reg ~name ~labels ~kind:"gauge"
    ~make:(fun () ->
      let r = ref 0.0 in
      (I_gauge r, r))
    ~extract:(function I_gauge r -> Some r | _ -> None)

let set g v = g := v

let observe_max g v = if v > !g then g := v

let histogram reg ?(labels = []) ?(buckets = Histogram.default_buckets) name =
  register reg ~name ~labels ~kind:"histogram"
    ~make:(fun () ->
      let h = Histogram.create ~buckets in
      (I_histogram h, h))
    ~extract:(function I_histogram h -> Some h | _ -> None)

let observe h v = Histogram.observe h v

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type histogram_summary = {
  count : int;
  sum : float;
  buckets : (float * int) list;
  p50 : float option;
  p90 : float option;
  p99 : float option;
}

type value =
  | Counter of int
  | Gauge of float
  | Histogram_summary of histogram_summary

type sample = {
  name : string;
  labels : (string * string) list;
  value : value;
}

type snapshot = sample list

let summarize h =
  let count = Histogram.count h in
  let q x = if count = 0 then None else Some (Histogram.quantile h x) in
  {
    count;
    sum = Histogram.sum h;
    buckets = Histogram.bucket_counts h;
    p50 = q 0.5;
    p90 = q 0.9;
    p99 = q 0.99;
  }

let compare_sample a b =
  match String.compare a.name b.name with
  | 0 -> compare a.labels b.labels
  | c -> c

let snapshot reg =
  Hashtbl.fold
    (fun (name, labels) instrument acc ->
      let value =
        match instrument with
        | I_counter r -> Counter !r
        | I_gauge r -> Gauge !r
        | I_histogram h -> Histogram_summary (summarize h)
      in
      { name; labels; value } :: acc)
    reg.tbl []
  |> List.sort compare_sample

let json_of_labels labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let json_of_value = function
  | Counter n -> [ ("type", Json.String "counter"); ("value", Json.Int n) ]
  | Gauge v -> [ ("type", Json.String "gauge"); ("value", Json.Float v) ]
  | Histogram_summary h ->
      let opt = function Some v -> Json.Float v | None -> Json.Null in
      [
        ("type", Json.String "histogram");
        ("count", Json.Int h.count);
        ("sum", Json.Float h.sum);
        ( "buckets",
          Json.List
            (List.map
               (fun (bound, n) ->
                 Json.Obj
                   [
                     ( "le",
                       if Float.is_finite bound then Json.Float bound
                       else Json.String "inf" );
                     ("count", Json.Int n);
                   ])
               h.buckets) );
        ("p50", opt h.p50);
        ("p90", opt h.p90);
        ("p99", opt h.p99);
      ]

let to_json snapshot =
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           (("name", Json.String s.name)
           :: ("labels", json_of_labels s.labels)
           :: json_of_value s.value))
       snapshot)

let render_labels labels =
  if labels = [] then ""
  else
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
    ^ "}"

let render_sample s =
  let body =
    match s.value with
    | Counter n -> string_of_int n
    | Gauge v -> Printf.sprintf "%.12g" v
    | Histogram_summary h ->
        let q name = function
          | Some v -> Printf.sprintf " %s=%.12g" name v
          | None -> ""
        in
        Printf.sprintf "count=%d sum=%.12g%s%s%s" h.count h.sum
          (q "p50" h.p50) (q "p90" h.p90) (q "p99" h.p99)
  in
  Printf.sprintf "%s%s = %s" s.name (render_labels s.labels) body

let render snapshot =
  String.concat "" (List.map (fun s -> render_sample s ^ "\n") snapshot)
