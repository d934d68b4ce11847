type complete = {
  name : string;
  cat : string;
  start_time : int;
  duration : int;
  node : int;
  args : (string * Json.t) list;
}

type instant = {
  name : string;
  cat : string;
  time : int;
  node : int;
  args : (string * Json.t) list;
}

type event = Complete of complete | Instant of instant

let time_of = function
  | Complete { start_time; _ } -> start_time
  | Instant { time; _ } -> time

let compare_event a b =
  match Int.compare (time_of a) (time_of b) with
  | 0 -> Stdlib.compare a b
  | c -> c

let same_multiset a b =
  List.sort compare_event a = List.sort compare_event b

(* The single process id every track lives under; node = Chrome tid. *)
let pid = 1

let json_of_event event =
  let common name cat ts node args =
    [
      ("name", Json.String name);
      ("cat", Json.String cat);
      ("ts", Json.Int ts);
      ("pid", Json.Int pid);
      ("tid", Json.Int node);
      ("args", Json.Obj args);
    ]
  in
  match event with
  | Complete { name; cat; start_time; duration; node; args } ->
      Json.Obj
        (("ph", Json.String "X")
        :: ("dur", Json.Int duration)
        :: common name cat start_time node args)
  | Instant { name; cat; time; node; args } ->
      Json.Obj
        (("ph", Json.String "i")
        :: ("s", Json.String "t")
        :: common name cat time node args)

let to_jsonl events =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Json.to_buffer buf (json_of_event e);
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

let to_chrome events =
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.Seq (Seq.map json_of_event (List.to_seq events)));
         ("displayTimeUnit", Json.String "ms");
       ])

let get_string field json =
  match Json.member field json with
  | Some (Json.String s) -> s
  | _ -> failwith (Printf.sprintf "Span: missing string field %S" field)

let get_int field json =
  match Json.member field json with
  | Some (Json.Int n) -> n
  | _ -> failwith (Printf.sprintf "Span: missing int field %S" field)

let get_args json =
  match Json.member "args" json with
  | Some (Json.Obj fields) -> fields
  | None -> []
  | Some _ -> failwith "Span: args is not an object"

let event_of_json json =
  match get_string "ph" json with
  | "X" ->
      Complete
        {
          name = get_string "name" json;
          cat = get_string "cat" json;
          start_time = get_int "ts" json;
          duration = get_int "dur" json;
          node = get_int "tid" json;
          args = get_args json;
        }
  | "i" | "I" ->
      Instant
        {
          name = get_string "name" json;
          cat = get_string "cat" json;
          time = get_int "ts" json;
          node = get_int "tid" json;
          args = get_args json;
        }
  | ph -> failwith (Printf.sprintf "Span: unsupported event phase %S" ph)

let of_jsonl s =
  String.split_on_char '\n' s
  |> List.filter (fun line -> String.trim line <> "")
  |> List.map (fun line -> event_of_json (Json.of_string line))

let of_chrome s =
  match Json.member "traceEvents" (Json.of_string s) with
  | Some (Json.List events) -> List.map event_of_json events
  | _ -> failwith "Span: no traceEvents array"
