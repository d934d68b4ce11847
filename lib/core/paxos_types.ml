type pno = { tag : int; proposer : int }

let compare_pno a b =
  match Int.compare a.tag b.tag with
  | 0 -> Int.compare a.proposer b.proposer
  | c -> c

let pno_lt a b = compare_pno a b < 0

let pno_le a b = compare_pno a b <= 0

(* Wire text is written into a Buffer, ints digit by digit: a trace
   renders one message per broadcast, and [Printf] or [string_of_int]
   would dominate that. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_digits buf n else Buffer.add_string buf (string_of_int n)

let add_pno buf { tag; proposer } =
  add_int buf tag;
  Buffer.add_char buf '.';
  add_int buf proposer

let text add x =
  let buf = Buffer.create 32 in
  add buf x;
  Buffer.contents buf

let pp_pno pno = text add_pno pno

type prior = { pno : pno; value : int }

let max_prior a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some pa, Some pb -> if pno_lt pa.pno pb.pno then b else a

let max_committed a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some na, Some nb -> if pno_lt na nb then b else a

type proposer_msg = Prepare of pno | Propose of { pno : pno; value : int }

let pno_of_proposer_msg = function Prepare pno -> pno | Propose { pno; _ } -> pno

type round = Prepare_round | Propose_round

let round_rank = function Prepare_round -> 0 | Propose_round -> 1

let compare_proposition (pa, ra) (pb, rb) =
  match compare_pno pa pb with
  | 0 -> Int.compare (round_rank ra) (round_rank rb)
  | c -> c

type response = {
  dest : int;
  target : int;
  pno : pno;
  round : round;
  positive : bool;
  count : int;
  best_prior : prior option;
  committed : pno option;
}

let pp_round = function Prepare_round -> "prep" | Propose_round -> "prop"

let add_proposer_msg buf = function
  | Prepare pno ->
      Buffer.add_string buf "prepare(";
      add_pno buf pno;
      Buffer.add_char buf ')'
  | Propose { pno; value } ->
      Buffer.add_string buf "propose(";
      add_pno buf pno;
      Buffer.add_string buf ",v=";
      add_int buf value;
      Buffer.add_char buf ')'

let add_response buf r =
  Buffer.add_string buf "resp{to=";
  add_int buf r.dest;
  Buffer.add_string buf ";tgt=";
  add_int buf r.target;
  Buffer.add_char buf ';';
  add_pno buf r.pno;
  Buffer.add_char buf '/';
  Buffer.add_string buf (pp_round r.round);
  Buffer.add_string buf (if r.positive then ";yes;x" else ";no;x");
  add_int buf r.count;
  (match r.best_prior with
  | None -> ()
  | Some p ->
      Buffer.add_string buf ";prior=";
      add_pno buf p.pno;
      Buffer.add_char buf ':';
      add_int buf p.value);
  (match r.committed with
  | None -> ()
  | Some c ->
      Buffer.add_string buf ";comm=";
      add_pno buf c);
  Buffer.add_char buf '}'

let pp_proposer_msg m = text add_proposer_msg m

let proposer_msg_ids = function Prepare _ | Propose _ -> 1

let response_ids r =
  (* dest, target, pno.proposer, plus ids inside prior/committed. *)
  3
  + (match r.best_prior with None -> 0 | Some _ -> 1)
  + match r.committed with None -> 0 | Some _ -> 1
