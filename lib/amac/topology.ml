type t = { adj : int list array }

let size t = Array.length t.adj

let validate_edge ~n (u, v) =
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg
      (Printf.sprintf "Topology: edge (%d,%d) out of range for n=%d" u v n);
  if u = v then
    invalid_arg (Printf.sprintf "Topology: self-loop at node %d" u)

let rec strictly_increasing = function
  | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
  | [ _ ] | [] -> true

let rec first_repeat = function
  | a :: (b :: _ as rest) -> if a = b then Some a else first_repeat rest
  | [ _ ] | [] -> None

(* Neighbour lists end sorted increasing; a duplicate edge shows up as a
   repeated neighbour. A list that arrives in order ([clique]'s do) is kept
   as it is: no sort, no copy, no allocation. *)
let of_edges ~n edge_list =
  if n < 0 then invalid_arg "Topology.of_edges: negative n";
  let adj = Array.make n [] in
  List.iter
    (fun (u, v) ->
      validate_edge ~n (u, v);
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v))
    edge_list;
  Array.iteri
    (fun u l ->
      if not (strictly_increasing l) then begin
        let l = List.sort Int.compare l in
        (match first_repeat l with
        | Some v ->
            invalid_arg
              (Printf.sprintf "Topology: duplicate edge (%d,%d)" (min u v)
                 (max u v))
        | None -> ());
        adj.(u) <- l
      end)
    adj;
  { adj }

let clique n =
  let edge_list = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edge_list := (u, v) :: !edge_list
    done
  done;
  of_edges ~n !edge_list

let line n =
  of_edges ~n (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let ring n =
  if n < 3 then invalid_arg "Topology.ring: need n >= 3";
  of_edges ~n ((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1)))

let star n =
  if n < 1 then invalid_arg "Topology.star: need n >= 1";
  of_edges ~n (List.init (n - 1) (fun i -> (0, i + 1)))

let grid ~width ~height =
  if width < 1 || height < 1 then invalid_arg "Topology.grid: empty dimension";
  let idx x y = (y * width) + x in
  let edge_list = ref [] in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      if x + 1 < width then edge_list := (idx x y, idx (x + 1) y) :: !edge_list;
      if y + 1 < height then edge_list := (idx x y, idx x (y + 1)) :: !edge_list
    done
  done;
  of_edges ~n:(width * height) !edge_list

let torus ~width ~height =
  if width < 3 || height < 3 then
    invalid_arg "Topology.torus: need width, height >= 3";
  let idx x y = (y * width) + x in
  let edge_list = ref [] in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      edge_list := (idx x y, idx ((x + 1) mod width) y) :: !edge_list;
      edge_list := (idx x y, idx x ((y + 1) mod height)) :: !edge_list
    done
  done;
  of_edges ~n:(width * height) !edge_list

let binary_tree n =
  let edge_list = ref [] in
  for i = 1 to n - 1 do
    edge_list := ((i - 1) / 2, i) :: !edge_list
  done;
  of_edges ~n !edge_list

let star_of_lines ~arms ~arm_len =
  if arms < 1 || arm_len < 1 then
    invalid_arg "Topology.star_of_lines: need arms, arm_len >= 1";
  (* Node 0 is the hub; arm a occupies indices 1 + a*arm_len .. (a+1)*arm_len. *)
  let edge_list = ref [] in
  for a = 0 to arms - 1 do
    let base = 1 + (a * arm_len) in
    edge_list := (0, base) :: !edge_list;
    for i = 0 to arm_len - 2 do
      edge_list := (base + i, base + i + 1) :: !edge_list
    done
  done;
  of_edges ~n:(1 + (arms * arm_len)) !edge_list

let random_connected rng ~n ~extra_edges =
  if n < 1 then invalid_arg "Topology.random_connected: need n >= 1";
  (* Random spanning tree: attach each node i >= 1 to a uniform earlier node
     of a random permutation, which samples a well-spread random tree. *)
  let perm = Array.init n (fun i -> i) in
  Rng.shuffle rng perm;
  let edge_list = ref [] in
  let present = Hashtbl.create (4 * n) in
  let add u v =
    let key = (min u v, max u v) in
    if u <> v && not (Hashtbl.mem present key) then begin
      Hashtbl.add present key ();
      edge_list := key :: !edge_list;
      true
    end
    else false
  in
  for i = 1 to n - 1 do
    let j = Rng.int rng i in
    ignore (add perm.(i) perm.(j))
  done;
  let added = ref 0 in
  let attempts = ref 0 in
  let max_attempts = 50 * (extra_edges + 1) in
  while !added < extra_edges && !attempts < max_attempts do
    incr attempts;
    if add (Rng.int rng n) (Rng.int rng n) then incr added
  done;
  of_edges ~n !edge_list

type delta = Add_edge of int * int | Remove_edge of int * int

let copy t = { adj = Array.copy t.adj }

(* Neighbor lists are sorted increasing; insertion keeps them that way so
   a mutated topology is indistinguishable from one built by [of_edges]. *)
let rec insert_sorted v = function
  | [] -> [ v ]
  | x :: rest as l ->
      if v < x then v :: l
      else if v = x then invalid_arg "Topology: duplicate edge"
      else x :: insert_sorted v rest

let add_edge t u v =
  validate_edge ~n:(Array.length t.adj) (u, v);
  if List.mem v t.adj.(u) then
    invalid_arg (Printf.sprintf "Topology.add_edge: edge (%d,%d) exists" u v);
  t.adj.(u) <- insert_sorted v t.adj.(u);
  t.adj.(v) <- insert_sorted u t.adj.(v)

let remove_edge t u v =
  validate_edge ~n:(Array.length t.adj) (u, v);
  if not (List.mem v t.adj.(u)) then
    invalid_arg (Printf.sprintf "Topology.remove_edge: no edge (%d,%d)" u v);
  t.adj.(u) <- List.filter (fun w -> w <> v) t.adj.(u);
  t.adj.(v) <- List.filter (fun w -> w <> u) t.adj.(v)

let apply_delta t = function
  | Add_edge (u, v) -> add_edge t u v
  | Remove_edge (u, v) -> remove_edge t u v

let edges t =
  let acc = ref [] in
  Array.iteri
    (fun u ns -> List.iter (fun v -> if u < v then acc := (u, v) :: !acc) ns)
    t.adj;
  List.rev !acc

let neighbors t u = t.adj.(u)

let degree t u = List.length t.adj.(u)

let has_edge t u v = List.mem v t.adj.(u)

let num_edges t = List.length (edges t)

let bfs_dist t source =
  let n = size t in
  let dist = Array.make n max_int in
  let queue = Queue.create () in
  dist.(source) <- 0;
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let du = dist.(u) in
    let visit v =
      if dist.(v) = max_int then begin
        dist.(v) <- du + 1;
        Queue.add v queue
      end
    in
    List.iter visit t.adj.(u)
  done;
  dist

let is_connected t =
  size t <= 1 || Array.for_all (fun d -> d < max_int) (bfs_dist t 0)

let eccentricity t u =
  let dist = bfs_dist t u in
  Array.fold_left
    (fun acc d ->
      if d = max_int then
        invalid_arg "Topology.eccentricity: graph is disconnected"
      else max acc d)
    0 dist

let diameter t =
  let best = ref 0 in
  for u = 0 to size t - 1 do
    best := max !best (eccentricity t u)
  done;
  !best

let pp fmt t =
  if is_connected t then
    Format.fprintf fmt "n=%d m=%d D=%d" (size t) (num_edges t) (diameter t)
  else Format.fprintf fmt "n=%d m=%d (disconnected)" (size t) (num_edges t)
