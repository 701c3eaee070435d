(* A work-stealing pool of domains for independent tasks. See the .mli
   and docs/PARALLELISM.md for the contract.

   Concurrency design: one mutex guards everything — the batch slot, the
   per-worker queues, and the counters. Tasks are whole compile+simulate
   runs, so the critical sections (dequeue an index, decrement a counter)
   are nanoseconds against task milliseconds; a lock-free deque would buy
   nothing measurable and cost a memory-model argument. Two conditions:
   [work] wakes workers (new batch, or batch finished — wake so idle
   thieves re-check), [finished] wakes callers waiting in [map] or
   [shutdown]. *)

type stats = { tasks : int; wall_s : float; steals : int }

(* Mutable twin of [stats]; fields touched only under the pool lock. *)
type counters = {
  mutable c_tasks : int;
  mutable c_wall_s : float;
  mutable c_steals : int;
}

(* One batch of tasks. [queues.(w)] holds task indices dealt to worker
   [w]; the owner takes from [lo] upward, thieves take from [hi - 1]
   downward, so an owner streams through its deal in submission order
   while thieves drain the far end. [run] executes one task and must not
   raise — exceptions are captured into the caller's error slots. *)
type batch = {
  queues : (int array * cursors) array;
  run : domain:int -> int -> unit;
  mutable remaining : int;
}

and cursors = { mutable lo : int; mutable hi : int }

type 'r t = {
  n : int;
  resources : 'r array;
  counters : counters array;
  lock : Mutex.t;
  work : Condition.t;
  finished : Condition.t;
  mutable batch : batch option;
  mutable stopping : bool;
  mutable workers : unit Domain.t array;  (* [||] for the inline pool *)
}

let domains t = t.n

(* ---- scheduling (all under t.lock) ------------------------------------ *)

let take_own (b : batch) w =
  let items, cur = b.queues.(w) in
  if cur.lo < cur.hi then begin
    let i = items.(cur.lo) in
    cur.lo <- cur.lo + 1;
    Some i
  end
  else None

let steal (b : batch) ~thief n =
  let rec scan k =
    if k = n then None
    else
      let v = (thief + k) mod n in
      let items, cur = b.queues.(v) in
      if cur.lo < cur.hi then begin
        cur.hi <- cur.hi - 1;
        Some items.(cur.hi)
      end
      else scan (k + 1)
  in
  scan 1

(* One task, executed off-lock, with its wall time booked to [w]. *)
let exec t (b : batch) w idx =
  Mutex.unlock t.lock;
  let t0 = Clock.now_s () in
  b.run ~domain:w idx;
  let dt = Clock.elapsed_s ~since:t0 in
  Mutex.lock t.lock;
  let c = t.counters.(w) in
  c.c_tasks <- c.c_tasks + 1;
  c.c_wall_s <- c.c_wall_s +. dt;
  b.remaining <- b.remaining - 1;
  if b.remaining = 0 then begin
    t.batch <- None;
    (* Wake the caller in [map] and any thief parked on [work]. *)
    Condition.broadcast t.finished;
    Condition.broadcast t.work
  end

let worker_loop t w =
  Mutex.lock t.lock;
  let rec loop () =
    if t.stopping then Mutex.unlock t.lock
    else
      match t.batch with
      | None ->
        Condition.wait t.work t.lock;
        loop ()
      | Some b -> (
        match take_own b w with
        | Some idx ->
          exec t b w idx;
          loop ()
        | None -> (
          match steal b ~thief:w t.n with
          | Some idx ->
            t.counters.(w).c_steals <- t.counters.(w).c_steals + 1;
            exec t b w idx;
            loop ()
          | None ->
            (* Batch dealt out but not drained: siblings are mid-task.
               Wait for the completion broadcast (or a new batch). *)
            Condition.wait t.work t.lock;
            loop ()))
  in
  loop ()

(* ---- lifecycle --------------------------------------------------------- *)

let create ~domains ~resource () =
  if domains < 1 then
    invalid_arg
      (Printf.sprintf "Domain_pool.create: domains must be >= 1, got %d"
         domains);
  let t =
    {
      n = domains;
      (* Resources are built on the creating domain, before any worker
         exists; workers only ever see their own slot. *)
      resources = Array.init domains resource;
      counters =
        Array.init domains (fun _ ->
            { c_tasks = 0; c_wall_s = 0.; c_steals = 0 });
      lock = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      batch = None;
      stopping = false;
      workers = [||];
    }
  in
  if domains > 1 then
    t.workers <- Array.init domains (fun w -> Domain.spawn (fun () -> worker_loop t w));
  t

let shutdown t =
  Mutex.lock t.lock;
  while t.batch <> None do
    Condition.wait t.finished t.lock
  done;
  let ws = t.workers in
  t.workers <- [||];
  t.stopping <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  Array.iter Domain.join ws

let with_pool ~domains ~resource f =
  let t = create ~domains ~resource () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* ---- map --------------------------------------------------------------- *)

(* Re-raise the lowest-indexed captured failure with its original
   backtrace — deterministic no matter which domain hit it first. *)
let reraise_first errors =
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    errors

let map_inline t f tasks =
  let arr = Array.of_list tasks in
  let n = Array.length arr in
  let results = Array.make n None in
  let errors = Array.make n None in
  let c = t.counters.(0) in
  Array.iteri
    (fun i task ->
      let t0 = Clock.now_s () in
      (match f ~domain:0 t.resources.(0) task with
      | v -> results.(i) <- Some v
      | exception e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
      c.c_tasks <- c.c_tasks + 1;
      c.c_wall_s <- c.c_wall_s +. Clock.elapsed_s ~since:t0)
    arr;
  reraise_first errors;
  List.init n (fun i ->
      match results.(i) with
      | Some v -> v
      | None -> assert false)

let map t f tasks =
  if t.stopping then invalid_arg "Domain_pool.map: pool is shut down";
  if t.n = 1 then map_inline t f tasks
  else begin
    let arr = Array.of_list tasks in
    let n = Array.length arr in
    if n = 0 then []
    else begin
      let results = Array.make n None in
      let errors = Array.make n None in
      let run ~domain idx =
        match f ~domain t.resources.(domain) arr.(idx) with
        | v -> results.(idx) <- Some v
        | exception e ->
          errors.(idx) <- Some (e, Printexc.get_raw_backtrace ())
      in
      (* Deal task i to worker (i mod n): round-robin keeps the deal
         deterministic and roughly balanced before stealing kicks in. *)
      let queues =
        Array.init t.n (fun w ->
            let mine = ref [] in
            for i = n - 1 downto 0 do
              if i mod t.n = w then mine := i :: !mine
            done;
            let items = Array.of_list !mine in
            (items, { lo = 0; hi = Array.length items }))
      in
      let b = { queues; run; remaining = n } in
      Mutex.lock t.lock;
      while t.batch <> None do
        Condition.wait t.finished t.lock
      done;
      if t.stopping then begin
        Mutex.unlock t.lock;
        invalid_arg "Domain_pool.map: pool is shut down"
      end;
      t.batch <- Some b;
      Condition.broadcast t.work;
      while b.remaining > 0 do
        Condition.wait t.finished t.lock
      done;
      Mutex.unlock t.lock;
      reraise_first errors;
      List.init n (fun i ->
          match results.(i) with
          | Some v -> v
          | None -> assert false)
    end
  end

(* ---- introspection ----------------------------------------------------- *)

let stats t =
  Mutex.lock t.lock;
  let s =
    Array.to_list
      (Array.map
         (fun c -> { tasks = c.c_tasks; wall_s = c.c_wall_s; steals = c.c_steals })
         t.counters)
  in
  Mutex.unlock t.lock;
  s

let resources t = Array.to_list t.resources
