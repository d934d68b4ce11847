(* Fixed-size domain pool. All deque state lives under one pool mutex —
   tasks submitted here are coarse (whole fuzz chunks, whole frontier
   slices), so contention on the lock is negligible and the simple
   invariant "everything mutable is guarded by [m]" holds throughout.
   Results cross domains through arrays written under that same lock
   discipline (task completion is published via [m]), so no torn reads. *)

type task = { run : unit -> unit }

(* Own end: push/pop [front] (LIFO, cache-warm). Thieves take the oldest
   task from [back] so a steal grabs the work least likely to be touched
   by the owner next. *)
type deque = { mutable front : task list; mutable back : task list }

type pool = {
  m : Mutex.t;
  work_cv : Condition.t;  (* workers sleep here waiting for tasks *)
  done_cv : Condition.t;  (* the [map] caller sleeps here draining a batch *)
  deques : deque array;  (* index 0 belongs to the caller *)
  mutable pending : int;  (* submitted tasks not yet finished *)
  mutable stopped : bool;
  mutable workers : unit Domain.t array;
}

let push dq task = dq.front <- task :: dq.front

let pop_own dq =
  match dq.front with
  | task :: rest ->
      dq.front <- rest;
      Some task
  | [] -> (
      match List.rev dq.back with
      | task :: rest ->
          dq.back <- rest;
          dq.front <- [];
          Some task
      | [] -> None)

let steal dq =
  match dq.back with
  | task :: rest ->
      dq.back <- rest;
      Some task
  | [] -> (
      match List.rev dq.front with
      | task :: rest ->
          dq.front <- rest;
          dq.back <- [];
          Some task
      | [] -> None)

(* Must be called with [pool.m] held. *)
let take pool who =
  match pop_own pool.deques.(who) with
  | Some _ as t -> t
  | None ->
      let size = Array.length pool.deques in
      let rec scan k =
        if k = size then None
        else
          let victim = (who + k) mod size in
          match steal pool.deques.(victim) with
          | Some _ as t -> t
          | None -> scan (k + 1)
      in
      scan 1

(* Must be called with [pool.m] held; returns with it held. *)
let finish_task pool =
  pool.pending <- pool.pending - 1;
  if pool.pending = 0 then Condition.broadcast pool.done_cv

let rec worker_loop pool who =
  Mutex.lock pool.m;
  let rec next () =
    if pool.stopped then None
    else
      match take pool who with
      | Some _ as t -> t
      | None ->
          Condition.wait pool.work_cv pool.m;
          next ()
  in
  match next () with
  | None -> Mutex.unlock pool.m
  | Some task ->
      Mutex.unlock pool.m;
      task.run ();
      Mutex.lock pool.m;
      finish_task pool;
      Mutex.unlock pool.m;
      worker_loop pool who

let create ~domains () =
  let size = max 1 domains in
  let pool =
    {
      m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      deques = Array.init size (fun _ -> { front = []; back = [] });
      pending = 0;
      stopped = false;
      workers = [||];
    }
  in
  pool.workers <-
    Array.init (size - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop pool (i + 1)));
  pool

let size pool = Array.length pool.deques

let map pool f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if size pool = 1 then Array.map f arr
  else begin
    let results = Array.make n None in
    let failures = Array.make n None in
    let task i =
      {
        run =
          (fun () ->
            match f arr.(i) with
            | v -> results.(i) <- Some v
            | exception e -> failures.(i) <- Some e);
      }
    in
    Mutex.lock pool.m;
    let size = size pool in
    for i = 0 to n - 1 do
      push pool.deques.(i mod size) (task i)
    done;
    pool.pending <- pool.pending + n;
    Condition.broadcast pool.work_cv;
    (* The caller works through the batch as worker 0, sleeping only when
       every remaining task is already executing on some other domain. *)
    let rec drain () =
      if pool.pending > 0 then
        match take pool 0 with
        | Some task ->
            Mutex.unlock pool.m;
            task.run ();
            Mutex.lock pool.m;
            finish_task pool;
            drain ()
        | None ->
            Condition.wait pool.done_cv pool.m;
            drain ()
    in
    drain ();
    Mutex.unlock pool.m;
    Array.iter (function Some e -> raise e | None -> ()) failures;
    Array.map
      (function
        | Some v -> v
        | None -> assert false (* no failure, so every slot was written *))
      results
  end

let shutdown pool =
  Mutex.lock pool.m;
  let workers = pool.workers in
  pool.stopped <- true;
  Condition.broadcast pool.work_cv;
  Mutex.unlock pool.m;
  Array.iter Domain.join workers

let with_pool ~domains f =
  let pool = create ~domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
