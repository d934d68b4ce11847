type t = {
  bounds : float array;  (* strictly increasing upper bounds *)
  counts : int array;  (* length = Array.length bounds + 1 (overflow) *)
  mutable count : int;
  mutable sum : float;
  mutable min_seen : float;
  mutable max_seen : float;
}

let default_buckets =
  [
    1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0; 1_000.0; 2_000.0;
    5_000.0; 10_000.0; 20_000.0; 50_000.0; 100_000.0;
  ]

let create ~buckets =
  (match buckets with
  | [] -> invalid_arg "Histogram.create: no buckets"
  | _ -> ());
  let bounds = Array.of_list buckets in
  Array.iter
    (fun b ->
      if not (Float.is_finite b) then
        invalid_arg "Histogram.create: non-finite bucket bound")
    bounds;
  for i = 1 to Array.length bounds - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Histogram.create: bounds must be strictly increasing"
  done;
  {
    bounds;
    counts = Array.make (Array.length bounds + 1) 0;
    count = 0;
    sum = 0.0;
    min_seen = infinity;
    max_seen = neg_infinity;
  }

(* Index of the first bucket whose upper bound is >= v; the overflow bucket
   when v exceeds every bound. *)
let bucket_index t v =
  let lo = ref 0 and hi = ref (Array.length t.bounds) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.bounds.(mid) >= v then hi := mid else lo := mid + 1
  done;
  !lo

let observe t v =
  if not (Float.is_nan v) then begin
    let i = bucket_index t v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum +. v;
    if v < t.min_seen then t.min_seen <- v;
    if v > t.max_seen then t.max_seen <- v
  end

let count t = t.count

let sum t = t.sum

let bucket_counts t =
  let n = Array.length t.bounds in
  List.init (n + 1) (fun i ->
      ((if i < n then t.bounds.(i) else infinity), t.counts.(i)))

let quantile t q =
  if t.count = 0 then invalid_arg "Histogram.quantile: empty histogram";
  if Float.is_nan q || q < 0.0 || q > 1.0 then
    invalid_arg "Histogram.quantile: q out of range";
  (* Nearest-rank: the rank-th smallest observation, 1-indexed. The extreme
     ranks are known exactly — they are the tracked min/max — so only
     interior ranks need bucket interpolation. *)
  let rank = max 1 (int_of_float (ceil (q *. float_of_int t.count))) in
  if rank = 1 then t.min_seen
  else if rank = t.count then t.max_seen
  else begin
  let n = Array.length t.bounds in
  let rec find i cum =
    if i > n then t.max_seen
    else
      let cum' = cum + t.counts.(i) in
      if cum' >= rank then
        if i = n then t.max_seen (* overflow bucket: best bound we have *)
        else begin
          let lo = if i = 0 then t.min_seen else t.bounds.(i - 1) in
          let hi = t.bounds.(i) in
          let lo = max lo t.min_seen and hi = min hi t.max_seen in
          if t.counts.(i) <= 1 || hi <= lo then max lo (min hi t.max_seen)
          else
            lo
            +. (hi -. lo)
               *. (float_of_int (rank - cum) -. 0.5)
               /. float_of_int t.counts.(i)
        end
      else find (i + 1) cum'
  in
  let v = find 0 0 in
  max t.min_seen (min t.max_seen v)
  end
