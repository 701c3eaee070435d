module Graph = Bp_graph.Graph
module Sim = Bp_sim.Sim
module Mapping = Bp_sim.Mapping

(* One channel's occupancy samples, in growable parallel arrays. *)
type series = {
  mutable times : float array;
  mutable depths : int array;
  mutable n_samples : int;
  mutable dropped : int;
}

(* The observers count into unboxed arrays indexed by dense slots fixed
   at [create] (a node's or channel's position in the graph's id order),
   and [finalize] writes the registry once, so no event formats or hashes
   a metric name: that would cost more than simulating the event. *)
type t = {
  m : Metrics.t;
  sample_limit : int;
  nodes : Graph.node array;
  node_slot : int array;  (* node id -> slot, -1 when not in the graph *)
  chan_ids : int array;
  chan_slot : int array;  (* channel id -> slot, -1 when not in the graph *)
  k_fires : int array;
  k_blocks : int array;
  k_sum : float array;  (* service-time histogram, as [Metrics.observe] *)
  k_min : float array;
  k_max : float array;
  k_buckets : int array;  (* [n_buckets] per node slot *)
  mutable pe_fires : int array;  (* by PE, grown on demand *)
  mutable pe_busy : float array;
  c_pushes : int array;
  c_pops : int array;
  c_blocks : int array;
  c_max_depth : int array;
  series : series array;
  mutable finalized : bool;
}

let kernel_fires name = Printf.sprintf "kernel.%s.fires" name
let kernel_service name = Printf.sprintf "kernel.%s.service_s" name
let kernel_blocks name = Printf.sprintf "kernel.%s.blocks" name
let pe_fires p = Printf.sprintf "pe.%d.fires" p
let pe_busy p = Printf.sprintf "pe.%d.busy_s" p
let pe_idle p = Printf.sprintf "pe.%d.idle_s" p
let pe_util p = Printf.sprintf "pe.%d.util" p
let chan_pushes id = Printf.sprintf "chan.%d.pushes" id
let chan_pops id = Printf.sprintf "chan.%d.pops" id
let chan_blocks id = Printf.sprintf "chan.%d.blocks" id
let chan_max_depth id = Printf.sprintf "chan.%d.max_depth" id
let chan_dropped id = Printf.sprintf "chan.%d.samples_dropped" id

let n_buckets = Array.length Metrics.bucket_bounds + 1

(* The bucket [Metrics.observe] files a sample under. *)
let bucket_index v =
  let bounds = Metrics.bucket_bounds in
  let rec go i =
    if i >= n_buckets - 1 || v <= bounds.(i) then i else go (i + 1)
  in
  go 0

let slot_table ids =
  let table = Array.make (Array.fold_left max (-1) ids + 1) (-1) in
  Array.iteri (fun slot id -> table.(id) <- slot) ids;
  table

let slot what table id =
  if id >= 0 && id < Array.length table && table.(id) >= 0 then table.(id)
  else
    invalid_arg
      (Printf.sprintf "Instrument: %s %d is not in the graph given to create"
         what id)

let create ?(sample_limit = 200_000) ~graph () =
  let nodes = Array.of_list (Graph.nodes graph) in
  let chan_ids =
    Array.of_list
      (List.map (fun (c : Graph.channel) -> c.Graph.chan_id)
         (Graph.channels graph))
  in
  let nk = Array.length nodes and nc = Array.length chan_ids in
  {
    m = Metrics.create ();
    sample_limit;
    nodes;
    node_slot =
      slot_table (Array.map (fun (n : Graph.node) -> n.Graph.id) nodes);
    chan_ids;
    chan_slot = slot_table chan_ids;
    k_fires = Array.make nk 0;
    k_blocks = Array.make nk 0;
    k_sum = Array.make nk 0.;
    k_min = Array.make nk Float.infinity;
    k_max = Array.make nk Float.neg_infinity;
    k_buckets = Array.make (nk * n_buckets) 0;
    pe_fires = [||];
    pe_busy = [||];
    c_pushes = Array.make nc 0;
    c_pops = Array.make nc 0;
    c_blocks = Array.make nc 0;
    c_max_depth = Array.make nc 0;
    series =
      Array.init nc (fun _ ->
          { times = [||]; depths = [||]; n_samples = 0; dropped = 0 });
    finalized = false;
  }

let metrics t = t.m

let grow_pes t proc =
  let n = max (proc + 1) (2 * Array.length t.pe_fires) in
  let fires = Array.make n 0 and busy = Array.make n 0. in
  Array.blit t.pe_fires 0 fires 0 (Array.length t.pe_fires);
  Array.blit t.pe_busy 0 busy 0 (Array.length t.pe_busy);
  t.pe_fires <- fires;
  t.pe_busy <- busy

let observer t ~time_s:_ ~proc ~node ~method_name:_ ~service_s =
  let k = slot "node" t.node_slot node.Graph.id in
  t.k_fires.(k) <- t.k_fires.(k) + 1;
  t.k_sum.(k) <- t.k_sum.(k) +. service_s;
  if service_s < t.k_min.(k) then t.k_min.(k) <- service_s;
  if service_s > t.k_max.(k) then t.k_max.(k) <- service_s;
  let b = (k * n_buckets) + bucket_index service_s in
  t.k_buckets.(b) <- t.k_buckets.(b) + 1;
  if proc >= Array.length t.pe_fires then grow_pes t proc;
  t.pe_fires.(proc) <- t.pe_fires.(proc) + 1;
  t.pe_busy.(proc) <- t.pe_busy.(proc) +. service_s

let add_sample t s time_s depth =
  if s.n_samples < t.sample_limit then begin
    if s.n_samples = Array.length s.times then begin
      let n = min t.sample_limit (max 64 (2 * s.n_samples)) in
      let times = Array.make n 0. and depths = Array.make n 0 in
      Array.blit s.times 0 times 0 s.n_samples;
      Array.blit s.depths 0 depths 0 s.n_samples;
      s.times <- times;
      s.depths <- depths
    end;
    s.times.(s.n_samples) <- time_s;
    s.depths.(s.n_samples) <- depth;
    s.n_samples <- s.n_samples + 1
  end
  else s.dropped <- s.dropped + 1

let channel_observer t ~time_s ~chan_id ~node ~proc:_ ~event ~depth =
  let c = slot "channel" t.chan_slot chan_id in
  if depth > t.c_max_depth.(c) then t.c_max_depth.(c) <- depth;
  match event with
  | Sim.Ch_push ->
    t.c_pushes.(c) <- t.c_pushes.(c) + 1;
    add_sample t t.series.(c) time_s depth
  | Sim.Ch_pop ->
    t.c_pops.(c) <- t.c_pops.(c) + 1;
    add_sample t t.series.(c) time_s depth
  | Sim.Ch_block ->
    t.c_blocks.(c) <- t.c_blocks.(c) + 1;
    let k = slot "node" t.node_slot node.Graph.id in
    t.k_blocks.(k) <- t.k_blocks.(k) + 1

(* Every on-chip kernel and every channel is registered, so components
   that never fire still show up — a zero is information, absence is a
   question. Other names appear only once an event fed them. *)
let write_counters t =
  let m = t.m in
  Array.iteri
    (fun k (n : Graph.node) ->
      let name = n.Graph.name and on_chip = Mapping.is_on_chip n in
      if on_chip || t.k_fires.(k) > 0 then
        Metrics.incr m ~by:t.k_fires.(k) (kernel_fires name);
      if on_chip || t.k_blocks.(k) > 0 then
        Metrics.incr m ~by:t.k_blocks.(k) (kernel_blocks name);
      if t.k_fires.(k) > 0 then
        Metrics.set_histogram m (kernel_service name) ~count:t.k_fires.(k)
          ~sum:t.k_sum.(k) ~min:t.k_min.(k) ~max:t.k_max.(k)
          ~buckets:(Array.sub t.k_buckets (k * n_buckets) n_buckets))
    t.nodes;
  Array.iteri
    (fun p fires ->
      if fires > 0 then begin
        Metrics.incr m ~by:fires (pe_fires p);
        Metrics.set m (pe_busy p) t.pe_busy.(p)
      end)
    t.pe_fires;
  Array.iteri
    (fun c id ->
      Metrics.incr m ~by:t.c_pushes.(c) (chan_pushes id);
      Metrics.incr m ~by:t.c_pops.(c) (chan_pops id);
      Metrics.incr m ~by:t.c_blocks.(c) (chan_blocks id);
      Metrics.set m (chan_max_depth id) (float_of_int t.c_max_depth.(c));
      let dropped = t.series.(c).dropped in
      if dropped > 0 then Metrics.incr m ~by:dropped (chan_dropped id))
    t.chan_ids

let finalize t ~result =
  if t.finalized then invalid_arg "Instrument.finalize: already finalized";
  t.finalized <- true;
  write_counters t;
  let duration = result.Sim.duration_s in
  Metrics.set t.m "sim.duration_s" duration;
  Metrics.incr t.m ~by:result.Sim.input_stalls "sim.input_stalls";
  Metrics.incr t.m ~by:result.Sim.late_emissions "sim.late_emissions";
  Metrics.incr t.m ~by:result.Sim.leftover_items "sim.leftover_items";
  Metrics.set t.m "sim.timed_out" (if result.Sim.timed_out then 1. else 0.);
  Array.iteri
    (fun p _ ->
      let busy = Option.value ~default:0. (Metrics.gauge t.m (pe_busy p)) in
      Metrics.set t.m (pe_busy p) busy;
      Metrics.set t.m (pe_idle p) (Float.max 0. (duration -. busy));
      Metrics.set t.m (pe_util p)
        (if duration > 0. then busy /. duration else 0.))
    result.Sim.procs;
  (* The simulator's own high-water marks are authoritative; observed
     marks can only agree or undershoot (they equal, by construction). *)
  List.iter
    (fun (id, depth) ->
      Metrics.set_max t.m (chan_max_depth id) (float_of_int depth))
    result.Sim.channel_depths

let channel_series t =
  Array.to_list
    (Array.mapi
       (fun c id ->
         let s = t.series.(c) in
         (id, List.init s.n_samples (fun i -> (s.times.(i), s.depths.(i)))))
       t.chan_ids)

let channel_label g id =
  let c = Graph.channel g id in
  Printf.sprintf "%s.%s->%s.%s"
    (Graph.node g c.Graph.src.Graph.node).Graph.name c.Graph.src.Graph.port
    (Graph.node g c.Graph.dst.Graph.node).Graph.name c.Graph.dst.Graph.port

let compose observers ~time_s ~proc ~node ~method_name ~service_s =
  List.iter
    (fun f -> f ~time_s ~proc ~node ~method_name ~service_s)
    observers

(* ---- compile-side metrics --------------------------------------------- *)

let record_compile m (plan : Bp_compiler.Plan.t) =
  let total =
    List.fold_left
      (fun acc (p : Bp_compiler.Pass.timing) ->
        Metrics.set m
          (Printf.sprintf "compile.pass.%s.wall_s" p.Bp_compiler.Pass.pass)
          p.Bp_compiler.Pass.wall_s;
        acc +. p.Bp_compiler.Pass.wall_s)
      0. plan.Bp_compiler.Plan.timings
  in
  Metrics.set m "compile.wall_s" total;
  Metrics.incr m ~by:0 "compile.diag.info";
  Metrics.incr m ~by:0 "compile.diag.warning";
  Metrics.incr m ~by:0 "compile.diag.error";
  List.iter
    (fun (d : Bp_util.Diag.t) ->
      Metrics.incr m
        ("compile.diag." ^ Bp_util.Diag.severity_name d.Bp_util.Diag.severity))
    plan.Bp_compiler.Plan.diagnostics
