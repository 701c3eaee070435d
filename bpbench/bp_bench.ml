(* bp_bench — the end-to-end and per-layer benchmark of the block-parallel
   compiler and simulator.

   A workload is one fixed configuration, run closed-loop: one client
   issues one op at a time with no think time, and nothing else runs. An
   op is one user-level request: build a seeded app, compile it, simulate
   the plan and verify the outputs; or one whole suite sweep; or one whole
   rate search. Op [i] draws its pixel data from seed [seed + i]; op 0 is
   the untimed warm-up, whose simulations are re-run on the reference
   engine before timing starts. Every op is checked, and any failed check
   counts the op as failed.

   The harness drives the library only through its public entry points
   and times each call from outside with CLOCK_MONOTONIC. End-to-end
   metrics come from untraced ops, each preceded by a fixed calibration
   loop; end-to-end times are scaled by how much slower or faster than
   the reference host the loop ran (see [calibrate]). With [--trace 1],
   traced ops alternate with untraced ones: traced ops record spans
   around each layer call and give the per-layer metrics, and the
   untraced ones give the tracing overhead. README.md in this directory
   is the metric glossary.

     dune exec ./bpbench/bp_bench.exe -- --seed 1
     dune exec ./bpbench/bp_bench.exe -- --workload pipeline-large \
       --seed 1 --seconds 20 --trace 0

   The first form runs every workload, each in a child process of its own
   (so each has its own heap and peak RSS). Every form prints each metric
   as [workload metric value unit], ends standard output with one JSON
   object line, and exits non-zero when any check failed. *)

open Block_parallel

(* ---- probes ----------------------------------------------------------- *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" @@ fun ic ->
  let rec scan () =
    match In_channel.input_line ic with
    | None -> failwith "no VmHWM line in /proc/self/status"
    | Some l -> (
      match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
      | Some kb -> float_of_int kb /. 1024.
      | None -> scan ())
  in
  scan ()

(* Allocation is read with [Gc.minor_words], which includes the words of
   the current minor heap and counts the calling domain only.
   [Gc.quick_stat]'s [minor_words] on OCaml 5.1 advances only at minor
   collections, so its deltas are whole minor heaps, or 0. The probe must
   see a known allocation: a 1,000-cell list is 3,000 words. *)
let gc_probe_words () =
  let w0 = Gc.minor_words () in
  let q0 = (Gc.quick_stat ()).Gc.minor_words in
  let l = Sys.opaque_identity (List.init 1000 Fun.id) in
  let words = Gc.minor_words () -. w0 in
  let quick = (Gc.quick_stat ()).Gc.minor_words -. q0 in
  ignore (Sys.opaque_identity l);
  (words, quick)

(* The speed of a shared host drifts by 10-30% over tens of seconds to
   minutes, and it moves every workload together: over 10 runs, a run's
   median op time and the median time of this loop, run beside each op,
   correlate at 0.95-0.99. Scaling op times by [reference_calibration_s /
   calibration time] cancels most of that drift (run-to-run spread of op
   time falls from ~10% to 1-3% on a 2-vCPU VM) while any change to the
   library still shows in full, since the loop uses only the standard
   library. It allocates, chases pointers and sorts, as compiling and
   simulating do. *)
module Int_map = Map.Make (Int)

let calibrate () =
  Gc.full_major ();
  let t0 = now_s () in
  let m = ref Int_map.empty in
  for i = 0 to 20_000 do
    m := Int_map.add ((i * 7919) land 0xFFFFF) i !m
  done;
  let sum = Int_map.fold (fun k v a -> a + k + v) !m 0 in
  let a =
    Array.init 70_000 (fun i -> float_of_int ((i * 104729) land 0xFFFF))
  in
  Array.sort Float.compare a;
  ignore (Sys.opaque_identity (sum, a));
  now_s () -. t0

(* About the loop's median wall time (23-29 ms) on the host that recorded
   baseline.json, a 2-vCPU Xeon VM with OCaml 5.1.1: end-to-end times are
   in seconds of that host at its usual speed. *)
let reference_calibration_s = 0.025

(* ---- statistics ------------------------------------------------------- *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the "exclusive" method), so a spread printed here matches one
   computed by a script from the same values. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

let ratio a b = if b = 0. then 0. else a /. b

(* ---- metrics ---------------------------------------------------------- *)

let end_to_end =
  [
    ("op_s", "s");
    ("op_s_p75", "s");
    ("setup_s", "s");
    ("sim_events_per_s", "events/s");
    ("peak_rss_mb", "MB");
  ]

let passes =
  [
    "validate";
    "analyze-pre";
    "align";
    "buffering";
    "parallelize";
    "analyze-post";
    "schedulability";
    "map";
    "place";
    "schedule";
  ]

(* Spans with children, whose self time is reported. *)
let parent_spans = [ "op"; "compile"; "sweep.job"; "rate_search.probe" ]

(* Per-layer metrics of the whole run rather than of one op: the raw
   median op time and calibration time, unscaled. *)
let run_level =
  [
    ("trace.overhead", "ratio");
    ("host.op_s", "s");
    ("host.calibration_s", "s");
  ]

(* A layer a workload does not exercise reports 0. *)
let per_layer =
  [ ("apps.build_s", "s"); ("apps.verify_s", "s") ]
  @ List.map (fun p -> ("compile." ^ p ^ "_s", "s")) passes
  @ [
      ("compile.pass_share", "ratio");
      ("compile.nodes", "count");
      ("compile.channels", "count");
      ("schedule.recorded_firings", "count");
      ("sim.run_s", "s");
      ("sim.events", "count");
      ("sim.dispatched_events", "count");
      ("sim.elided_share", "ratio");
      ("sim.fires", "count");
      ("sim.static_coverage", "ratio");
      ("sim.indexed_share", "ratio");
      ("sim.fallback_events", "count");
      ("sim.ns_per_dispatched_event", "ns");
      ("pool.hit_rate", "ratio");
      ("pool.misses", "count");
      ("gc.minor_words_per_event", "words/event");
      ("gc.minor_words_per_compile", "words");
      ("gc.major_collections", "count");
      ("obs.overhead_s", "s");
      ("obs.finalize_s", "s");
      ("obs.json_bytes", "bytes");
      ("sweep.task_s", "s");
      ("sweep.busy_share", "ratio");
      ("sweep.steals", "count");
      ("sweep.speedup_vs_j1", "ratio");
      ("rate_search.probes", "count");
      ("rate_search.probe_s", "s");
    ]
  @ List.map (fun s -> ("self." ^ s ^ "_s", "s")) parent_spans
  @ [ ("trace.coverage", "ratio") ]
  @ run_level

(* ---- one op: counters, spans, checks ---------------------------------- *)

type span = {
  s_id : int;
  s_name : string;
  s_parent : int;  (** 0 for an op's root span. *)
  s_tid : int;  (** 0 on the main domain; a sweep job's worker index + 1. *)
  s_t0 : float;
  s_t1 : float;
}

(* A simulated program, kept so set-up can re-run it on the reference
   engine. *)
type program = {
  p_label : string;
  p_machine : Machine.t;
  p_policy : Plan.policy;
  p_build : unit -> App.instance;
  p_result : Sim.result;
}

(* Sweep jobs record into the op from worker domains, hence the lock. *)
type op = {
  traced : bool;
  lock : Mutex.t;
  sums : (string, float) Hashtbl.t;
  mutable failures : string list;
  mutable setups : float list;
  mutable spans : span list;
  mutable next_id : int;
  mutable programs : program list;
}

let new_op ~traced =
  {
    traced;
    lock = Mutex.create ();
    sums = Hashtbl.create 64;
    failures = [];
    setups = [];
    spans = [];
    next_id = 0;
    programs = [];
  }

let locked op f = Mutex.protect op.lock f
let get op key = Option.value ~default:0. (Hashtbl.find_opt op.sums key)

let add op key v =
  locked op (fun () -> Hashtbl.replace op.sums key (get op key +. v))

let addi op key n = add op key (float_of_int n)

let fail op fmt =
  Printf.ksprintf
    (fun m -> locked op (fun () -> op.failures <- m :: op.failures))
    fmt

let fresh_id op =
  locked op (fun () ->
      op.next_id <- op.next_id + 1;
      op.next_id)

let record op ?(id = fresh_id op) ~tid ~parent name t0 t1 =
  if op.traced then
    locked op (fun () ->
        op.spans <-
          {
            s_id = id;
            s_name = name;
            s_parent = parent;
            s_tid = tid;
            s_t0 = t0;
            s_t1 = t1;
          }
          :: op.spans);
  id

(* Time [f id] as span [name]: adds its duration to the [name_s] counter
   and returns [f]'s value with the duration. *)
let phase op ?(tid = 0) ~parent name f =
  let id = fresh_id op in
  let t0 = now_s () in
  let v = f id in
  let t1 = now_s () in
  add op (name ^ "_s") (t1 -. t0);
  ignore (record op ~id ~tid ~parent name t0 t1);
  (v, t1 -. t0)

(* Compile, with one child span per pass laid end-to-end from the plan's
   own pass timings. *)
let compile op ~tid ~machine graph id =
  let t0 = now_s () in
  let w0 = Gc.minor_words () in
  let plan = Pipeline.compile ~machine graph in
  add op "gc.compile_words" (Gc.minor_words () -. w0);
  ignore
    (List.fold_left
       (fun t (p : Pass.timing) ->
         let t' = t +. p.Pass.wall_s in
         add op ("compile." ^ p.Pass.pass ^ "_s") p.Pass.wall_s;
         ignore (record op ~tid ~parent:id ("compile." ^ p.Pass.pass) t t');
         t')
       t0 plan.Plan.timings);
  plan

let count_sim op (plan : Plan.t) (r : Sim.result) =
  let fires =
    List.fold_left (fun a (_, ns) -> a + ns.Sim.node_fires) 0 r.Sim.node_stats
  in
  addi op "sim.events" r.Sim.events_processed;
  addi op "sim.dispatched_events"
    (r.Sim.events_processed - r.Sim.static_elided_events);
  addi op "sim.elided_events" r.Sim.static_elided_events;
  addi op "sim.fires" fires;
  addi op "sim.static_fired" r.Sim.static_fired;
  addi op "sim.indexed_fired" r.Sim.static_indexed_fired;
  addi op "sim.fallback_events" r.Sim.static_fallback_events;
  addi op "schedule.recorded_firings"
    plan.Plan.schedule.Static_schedule.recorded_firings;
  addi op "compile.nodes" (List.length (Graph.nodes plan.Plan.graph));
  addi op "compile.channels" (List.length (Graph.channels plan.Plan.graph));
  Option.iter
    (fun (p : Pool.stats) ->
      addi op "pool.hits" p.Pool.hits;
      addi op "pool.misses" p.Pool.misses)
    r.Sim.pool

let verify op ~label (inst : App.instance) (r : Sim.result) =
  let _, exact = App.verify inst r in
  let verdict =
    Sim.real_time_verdict r ~expected_frames:inst.App.n_frames
      ~period_s:(App.period_s inst) ~allowed_leftover:inst.App.allowed_leftover
      ()
  in
  if not exact then fail op "%s: output differs from the golden images" label;
  if not verdict.Sim.met then fail op "%s: real-time rate missed" label;
  if r.Sim.timed_out then fail op "%s: simulation timed out" label;
  if r.Sim.leftover_items <> 0 then
    fail op "%s: %d items left queued" label r.Sim.leftover_items;
  if r.Sim.static_fallback_events <> 0 then
    fail op "%s: %d static fallback events" label r.Sim.static_fallback_events

(* What [bpc simulate --metrics --health] does after the run, with the two
   snapshots serialised in memory instead of written to files. *)
let finalize_observers op ~label plan (r : Sim.result) ins hlt =
  Instrument.finalize ins ~result:r;
  Health.finalize hlt ~result:r ();
  let reg = Instrument.metrics ins in
  Instrument.record_compile reg plan;
  Option.iter
    (fun (p : Pool.stats) ->
      Metrics.record_pool reg ~hits:p.Pool.hits ~misses:p.Pool.misses
        ~releases:p.Pool.releases ~live:p.Pool.live ())
    r.Sim.pool;
  addi op "obs.json_bytes"
    (String.length (Obs_json.to_string (Metrics.to_json reg))
    + String.length (Obs_json.to_string (Health.to_json hlt)));
  match Health.bottleneck hlt with
  | None -> fail op "%s: health reports no bottleneck" label
  | Some b ->
    List.iter
      (fun ((node : Graph.node), (bd : Health.breakdown)) ->
        let total =
          bd.Health.busy_s +. bd.Health.blocked_input_s
          +. bd.Health.blocked_output_s +. bd.Health.idle_s
        in
        if Float.abs (total -. r.Sim.duration_s) > 1e-9 then
          fail op "%s: kernel %d states sum to %.9g s, run lasted %.9g s"
            label node.Graph.id total r.Sim.duration_s)
      b.Health.b_ranking

(* Build, compile, simulate and verify one program. *)
let run_program ?(tid = 0) ?chunk_pool ?(observed = false) op ~parent ~label
    ~machine ~policy build =
  let inst, t_build = phase op ~tid ~parent "apps.build" (fun _ -> build ()) in
  let plan, t_compile =
    phase op ~tid ~parent "compile" (compile op ~tid ~machine inst.App.graph)
  in
  addi op "compile.count" 1;
  locked op (fun () -> op.setups <- (t_build +. t_compile) :: op.setups);
  let (result, observers), _ =
    phase op ~tid ~parent "sim.run" (fun _ ->
        let w0 = Gc.minor_words () in
        let r =
          if observed then begin
            let graph = plan.Plan.graph in
            let ins = Instrument.create ~graph () in
            let hlt = Health.create ~graph () in
            ( Plan.run_plan ?chunk_pool ~observer:(Instrument.observer ins)
                ~channel_observer:(Instrument.channel_observer ins)
                ~state_observer:(Health.state_observer hlt) ~policy plan (),
              Some (ins, hlt) )
          end
          else (Plan.run_plan ?chunk_pool ~policy plan (), None)
        in
        add op "gc.run_words" (Gc.minor_words () -. w0);
        r)
  in
  count_sim op plan result;
  Option.iter
    (fun (ins, hlt) ->
      ignore
        (phase op ~tid ~parent "obs.finalize" (fun _ ->
             finalize_observers op ~label plan result ins hlt)))
    observers;
  ignore
    (phase op ~tid ~parent "apps.verify" (fun _ ->
         verify op ~label inst result));
  locked op (fun () ->
      op.programs <-
        {
          p_label = label;
          p_machine = machine;
          p_policy = policy;
          p_build = build;
          p_result = result;
        }
        :: op.programs)

(* Set-up check: every program of the warm-up op, rebuilt from the same
   seed and run on the reference engine, must give the same event count,
   duration and sink end-of-frame times. *)
let check_against_reference op =
  List.iter
    (fun p ->
      let inst = p.p_build () in
      let plan = Pipeline.compile ~machine:p.p_machine inst.App.graph in
      let r =
        Sim_reference.run ~graph:plan.Plan.graph
          ~mapping:(Plan.mapping plan ~policy:p.p_policy)
          ~machine:plan.Plan.machine ()
      in
      let e = p.p_result in
      let eofs (x : Sim.result) = List.sort compare x.Sim.sink_eofs in
      if
        r.Sim.events_processed <> e.Sim.events_processed
        || r.Sim.duration_s <> e.Sim.duration_s
        || eofs r <> eofs e
      then
        fail op
          "%s: engine disagrees with Sim_reference (%d vs %d events, %.17g \
           vs %.17g s)"
          p.p_label e.Sim.events_processed r.Sim.events_processed
          e.Sim.duration_s r.Sim.duration_s)
    op.programs

(* ---- workloads -------------------------------------------------------- *)

type workload = {
  name : string;
  op : op -> parent:int -> seed:int -> unit;
  side : op -> seed:int -> unit;
      (** Extra measurement after each traced op, outside its span. *)
}

let no_side _ ~seed:_ = ()
let n_frames = 3

let pipeline_large =
  {
    name = "pipeline-large";
    op =
      (fun op ~parent ~seed ->
        run_program op ~parent ~label:"image-pipeline-96x72"
          ~machine:Machine.default ~policy:Plan.One_to_one (fun () ->
            Apps.Image_pipeline.v ~seed ~frame:(Size.v 96 72)
              ~rate:(Rate.hz 10.) ~n_frames ()));
    side = no_side;
  }

let observed_histogram =
  let histogram ~observed op ~parent ~seed =
    run_program ~observed op ~parent ~label:"histogram-96x72"
      ~machine:Machine.default ~policy:Plan.Greedy (fun () ->
        Apps.Histogram_app.v ~seed ~frame:(Size.v 96 72) ~rate:(Rate.hz 40.)
          ~n_frames ())
  in
  {
    name = "observed-histogram";
    op = histogram ~observed:true;
    side =
      (fun op ~seed ->
        let bare = new_op ~traced:false in
        histogram ~observed:false bare ~parent:0 ~seed;
        add op "obs.unobserved_run_s" (get bare "sim.run_s"));
  }

(* The Figure-13 suite with a pixel seed: [Suite.entries] fixes each app's
   seed, so each entry is rebuilt here from its own frame, rate and frame
   count through the seeded constructor of the same app. *)
let seeded_suite =
  lazy
    (List.map
       (fun (e : Apps.Suite.entry) ->
         let t = e.Apps.Suite.build () in
         let frame = t.App.frame and rate = t.App.rate in
         let n_frames = t.App.n_frames in
         let build ~seed () =
           match t.App.name with
           | "bayer" -> Apps.Bayer_app.v ~seed ~frame ~rate ~n_frames ()
           | "histogram" -> Apps.Histogram_app.v ~seed ~frame ~rate ~n_frames ()
           | "parallel-buffer" ->
             Apps.Parallel_buffer.v ~seed ~frame ~rate ~n_frames ()
           | "multi-conv" -> Apps.Multi_conv.v ~seed ~frame ~rate ~n_frames ()
           | "image-pipeline" ->
             Apps.Image_pipeline.v ~seed ~frame ~rate ~n_frames ()
           | other -> failwith ("no seeded constructor for suite app " ^ other)
         in
         (e.Apps.Suite.label, e.Apps.Suite.machine, build))
       Apps.Suite.entries)

(* One sweep over the suite × {1:1, greedy} on a pool of [domains]
   workers: the job body of [Sweep.simulate_jobs], with compile and run
   timed apart. The pool lives for one sweep, as in a [bpc sweep -j N]
   invocation, so no worker domain is left idle beside later ops and the
   calibration loop (an idle domain still joins every stop-the-world
   minor collection). *)
let sweep ~domains op ~parent ~seed =
  let jobs =
    List.concat_map
      (fun (label, machine, build) ->
        List.map
          (fun policy ->
            ( Printf.sprintf "%s/%s" label (Plan.policy_name policy),
              machine,
              policy,
              build ~seed ))
          [ Plan.One_to_one; Plan.Greedy ])
      (Lazy.force seeded_suite)
  in
  let t0 = now_s () in
  Sweep.with_pool ~domains (fun pool ->
      ignore
        (Sweep.map pool
           (fun ctx (label, machine, policy, build) ->
             let tid = ctx.Sweep.domain + 1 in
             phase op ~tid ~parent "sweep.job" (fun id ->
                 run_program ~tid ~chunk_pool:ctx.Sweep.chunk_pool op
                   ~parent:id ~label ~machine ~policy build))
           jobs);
      List.iter
        (fun (d : Sweep.domain_report) ->
          addi op "sweep.tasks" d.Sweep.d_tasks;
          add op "sweep.domain_wall_s" d.Sweep.d_wall_s;
          addi op "sweep.steals" d.Sweep.d_steals)
        (Sweep.report pool));
  add op "sweep.wall_s" (now_s () -. t0);
  addi op "sweep.domains" domains

(* The timed sweep runs on one domain. On a 2-vCPU shared host a 2-domain
   sweep also times the other tenants' use of the second vCPU, which the
   one-domain calibration loop cannot see: over 10 runs its event rate
   spread 10-17% after scaling. The traced pass runs the same sweep at
   -j 2 after each traced op, for the pool's own metrics. *)
let suite_sweep =
  {
    name = "suite-sweep";
    op = sweep ~domains:1;
    side =
      (fun op ~seed ->
        let j2 = new_op ~traced:false in
        sweep ~domains:2 j2 ~parent:0 ~seed;
        List.iter (fun m -> fail op "-j 2: %s" m) j2.failures;
        List.iter
          (fun k -> add op ("j2." ^ k) (get j2 k))
          [
            "sweep.wall_s";
            "sweep.tasks";
            "sweep.domain_wall_s";
            "sweep.steals";
            "sweep.domains";
          ]);
  }

(* The answer every rate-search op must return. *)
let pinned_best_rate_hz = 39.779541015625

let rate_search =
  let machine = Machine.default and frame = Size.v 24 18 in
  let app ~seed rate_hz () =
    Apps.Image_pipeline.v ~seed ~frame ~rate:(Rate.hz rate_hz) ~n_frames ()
  in
  let first_probes = ref None in
  let search op ~parent ~seed =
    (* Each build callback opens a probe; the probe lasts until the next
       callback, or until the search returns. *)
    let marks = ref [] in
    let build_words = ref 0. in
    let build ~rate_hz =
      let t0 = now_s () and w0 = Gc.minor_words () in
      let inst = app ~seed rate_hz () in
      build_words := !build_words +. (Gc.minor_words () -. w0);
      marks := (t0, now_s ()) :: !marks;
      inst.App.graph
    in
    let w0 = Gc.minor_words () in
    let r = Rate_search.search ~machine ~max_pes:8 ~greedy:true build in
    let t_end = now_s () in
    add op "gc.compile_words" (Gc.minor_words () -. w0 -. !build_words);
    ignore
      (List.fold_left
         (fun next (t0, t1) ->
           let id = record op ~tid:0 ~parent "rate_search.probe" t0 next in
           ignore (record op ~tid:0 ~parent:id "apps.build" t0 t1);
           add op "apps.build_s" (t1 -. t0);
           add op "rate_search.probe_total_s" (next -. t0);
           addi op "rate_search.probes" 1;
           addi op "compile.count" 1;
           locked op (fun () -> op.setups <- (next -. t0) :: op.setups);
           t0)
         t_end !marks);
    let probes = r.Rate_search.probes in
    (match !first_probes with
    | None -> first_probes := Some probes
    | Some p when p = probes -> ()
    | Some _ -> fail op "rate search probed a different sequence");
    if r.Rate_search.best_rate_hz <> pinned_best_rate_hz then
      fail op "rate search found %.17g Hz, pinned answer is %.17g Hz"
        r.Rate_search.best_rate_hz pinned_best_rate_hz;
    (* The answer is confirmed the way a user would: simulate it. *)
    run_program op ~parent ~label:"image-pipeline-24x18@best" ~machine
      ~policy:Plan.Greedy
      (app ~seed r.Rate_search.best_rate_hz)
  in
  { name = "rate-search"; op = search; side = no_side }

let workloads = [ pipeline_large; suite_sweep; observed_histogram; rate_search ]

(* ---- measuring one workload ------------------------------------------- *)

(* Each op starts from a collected heap, as in a fresh [bpc] process, so no
   op pays for garbage an earlier one left. *)
let run_op w ~traced ~seed =
  let op = new_op ~traced in
  Gc.full_major ();
  let m0 = major_collections () in
  let (), dt =
    phase op ~parent:0 "op" (fun id ->
        try w.op op ~parent:id ~seed
        with e -> fail op "%s: %s" w.name (Printexc.to_string e))
  in
  addi op "gc.major_collections" (major_collections () - m0);
  (op, dt)

(* A span's self time: its duration minus the part its children cover. *)
let self_times op =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.s_parent s) op.spans;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let kids =
        Hashtbl.find_all children s.s_id
        |> List.map (fun c ->
               (Float.max s.s_t0 c.s_t0, Float.min s.s_t1 c.s_t1))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, upto) (a, b) ->
            let a = Float.max a upto in
            if b > a then (acc +. (b -. a), b) else (acc, upto))
          (0., neg_infinity) kids
      in
      let prev = Option.value ~default:0. (Hashtbl.find_opt totals s.s_name) in
      Hashtbl.replace totals s.s_name (prev +. (s.s_t1 -. s.s_t0 -. covered)))
    op.spans;
  totals

let layer_values op ~op_s =
  let g = get op in
  let selfs = self_times op in
  let self s = Option.value ~default:0. (Hashtbl.find_opt selfs s) in
  let pass_sum =
    List.fold_left (fun a p -> a +. g ("compile." ^ p ^ "_s")) 0. passes
  in
  let derived =
    [
      ("compile.pass_share", ratio pass_sum (g "compile_s"));
      ("sim.elided_share", ratio (g "sim.elided_events") (g "sim.events"));
      ("sim.static_coverage", ratio (g "sim.static_fired") (g "sim.fires"));
      ( "sim.indexed_share",
        ratio (g "sim.indexed_fired") (g "sim.static_fired") );
      ( "sim.ns_per_dispatched_event",
        1e9 *. ratio (g "sim.run_s") (g "sim.dispatched_events") );
      ( "pool.hit_rate",
        ratio (g "pool.hits") (g "pool.hits" +. g "pool.misses") );
      ("gc.minor_words_per_event", ratio (g "gc.run_words") (g "sim.events"));
      ( "gc.minor_words_per_compile",
        ratio (g "gc.compile_words") (g "compile.count") );
      ( "obs.overhead_s",
        if g "obs.finalize_s" > 0. then
          g "sim.run_s" -. g "obs.unobserved_run_s"
        else 0. );
      ( "sweep.task_s",
        ratio (g "j2.sweep.domain_wall_s") (g "j2.sweep.tasks") );
      ( "sweep.busy_share",
        ratio (g "j2.sweep.domain_wall_s")
          (g "j2.sweep.domains" *. g "j2.sweep.wall_s") );
      ("sweep.steals", g "j2.sweep.steals");
      ("sweep.speedup_vs_j1", ratio (g "sweep.wall_s") (g "j2.sweep.wall_s"));
      ( "rate_search.probe_s",
        ratio (g "rate_search.probe_total_s") (g "rate_search.probes") );
      ("trace.coverage", 1. -. ratio (self "op") op_s);
    ]
    @ List.map (fun s -> ("self." ^ s ^ "_s", self s)) parent_spans
  in
  List.map
    (fun (name, _) ->
      ( name,
        match List.assoc_opt name derived with Some v -> v | None -> g name ))
    per_layer

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
}

let chrome_trace ops =
  let origin =
    List.fold_left
      (fun a (op, _) ->
        List.fold_left (fun a s -> Float.min a s.s_t0) a op.spans)
      infinity ops
  in
  let us t = Obs_json.Float ((t -. origin) *. 1e6) in
  Obs_json.Obj
    [
      ( "traceEvents",
        Obs_json.List
          (List.concat
             (List.mapi
                (fun i (op, _) ->
                  List.rev_map
                    (fun s ->
                      Obs_json.Obj
                        [
                          ("name", Obs_json.Str s.s_name);
                          ("ph", Obs_json.Str "X");
                          ("ts", us s.s_t0);
                          ("dur", Obs_json.Float ((s.s_t1 -. s.s_t0) *. 1e6));
                          ("pid", Obs_json.Int 0);
                          ("tid", Obs_json.Int s.s_tid);
                          ( "args",
                            Obs_json.Obj
                              [
                                ("id", Obs_json.Int s.s_id);
                                ( "parent",
                                  if s.s_parent = 0 then Obs_json.Null
                                  else Obs_json.Int s.s_parent );
                                ("op", Obs_json.Int (i + 1));
                              ] );
                        ])
                    op.spans)
                ops)) );
    ]

(* The process's peak RSS varies from run to run by up to 15% after one
   op, and then creeps up with every op as the heap fragments. It is read
   after a fixed number of ops: at the deadline it would follow the op
   count, and so the host's speed. *)
let rss_after_ops = 10

let measure w ~seed ~seconds ~traced ~trace_file =
  (* Set-up, untimed: the warm-up op, checked against the reference
     engine. *)
  let warm, _ = run_op w ~traced:false ~seed in
  check_against_reference warm;
  List.iter prerr_endline (List.rev warm.failures);
  let plain = ref [] and spanned = ref [] and rss = ref None in
  let deadline = now_s () +. seconds in
  let i = ref 0 in
  while !i = 0 || now_s () < deadline do
    incr i;
    let seed = seed + !i in
    let timed ~traced =
      let ((op, _) as t) = run_op w ~traced ~seed in
      op.programs <- [];
      t
    in
    let c = calibrate () in
    plain := (timed ~traced:false, c) :: !plain;
    if !i = rss_after_ops then rss := Some (peak_rss_mb ());
    if traced then begin
      let ((op, _) as t) = timed ~traced:true in
      w.side op ~seed;
      spanned := t :: !spanned
    end
  done;
  (* Each untraced op is scaled by the mean of the loop times just before
     and just after it, so a slow spell of the host that covers part of a
     run is cancelled in the ops it slowed. *)
  let calibrations = List.rev_map snd !plain @ [ calibrate () ] in
  let plain =
    List.map2
      (fun (t, c0) c1 -> (t, reference_calibration_s /. ((c0 +. c1) /. 2.)))
      (List.rev !plain) (List.tl calibrations)
  in
  let times l = List.map snd l in
  let per_op =
    List.map
      (fun (op, dt) ->
        let values = layer_values op ~op_s:dt in
        let share = List.assoc "compile.pass_share" values in
        if Float.abs (share -. 1.) > 0.05 then
          fail op "compile passes sum to %.3f of the timed compile" share;
        values)
      !spanned
  in
  let untraced = List.map fst plain in
  let ops = untraced @ List.rev !spanned in
  let failed =
    List.length (List.filter (fun (op, _) -> op.failures <> []) ops)
  in
  List.iter
    (fun (op, _) -> List.iter prerr_endline (List.rev op.failures))
    ops;
  let scaled f = List.map (fun ((op, dt), k) -> f op dt k) plain in
  let _, op_s, op_s_p75 = quartiles (scaled (fun _ dt k -> dt *. k)) in
  let e2e =
    [
      ("op_s", op_s);
      ("op_s_p75", op_s_p75);
      ( "setup_s",
        median
          (List.concat
             (scaled (fun op _ k -> List.map (fun t -> t *. k) op.setups))) );
      ( "sim_events_per_s",
        median
          (scaled (fun op _ k ->
               ratio (get op "sim.events") (get op "sim.run_s") /. k)) );
      ("peak_rss_mb", Option.value !rss ~default:(peak_rss_mb ()));
    ]
  in
  let raw_op_s = median (times untraced) in
  let layers =
    if traced then begin
      Option.iter
        (fun path ->
          Obs_json.write_file ~path (chrome_trace (List.rev !spanned)))
        trace_file;
      [
        ("trace.overhead", ratio (median (times !spanned)) raw_op_s -. 1.);
        ("host.op_s", raw_op_s);
        ("host.calibration_s", median calibrations);
      ]
      @ List.filter_map
          (fun (name, _) ->
            if List.mem_assoc name run_level then None
            else Some (name, median (List.map (List.assoc name) per_op)))
          per_layer
    end
    else []
  in
  let values = e2e @ layers in
  {
    correct = warm.failures = [] && failed = 0;
    attempted = List.length ops;
    failed;
    metrics =
      List.filter_map
        (fun (name, unit) ->
          Option.map (fun v -> (name, v, unit)) (List.assoc_opt name values))
        (end_to_end @ per_layer);
  }

(* ---- output ----------------------------------------------------------- *)

(* Values keep every digit: the shortest form that reads back to the same
   float. Names and units are plain ASCII, where OCaml's %S is JSON's
   string syntax. *)
let number v =
  if not (Float.is_finite v) then "null"
  else
    List.map (fun p -> Printf.sprintf "%.*g" p v) [ 15; 16; 17 ]
    |> List.find (fun s -> float_of_string s = v)

let outcome_line o =
  Printf.sprintf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    o.correct o.attempted o.failed
    (String.concat ","
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (number v)
              unit)
          o.metrics))

let outcome_of_json j =
  let field k = Option.get (Obs_json.member k j) in
  let int k = match field k with Obs_json.Int n -> n | _ -> failwith k in
  {
    correct = field "correct" = Obs_json.Bool true;
    attempted = int "attempted";
    failed = int "failed";
    metrics =
      (match field "metrics" with
      | Obs_json.Obj l ->
        List.map
          (fun (name, m) ->
            ( name,
              Option.value ~default:nan
                (Option.bind (Obs_json.member "value" m) Obs_json.to_float_opt),
              match Obs_json.member "unit" m with
              | Some (Obs_json.Str u) -> u
              | _ -> "" ))
          l
      | _ -> failwith "metrics");
  }

let print_rows workload o =
  List.iter
    (fun (name, v, unit) ->
      Printf.printf "%s %s %.9g %s\n" workload name v unit)
    o.metrics;
  Printf.printf "%s attempted %d ops, %d failed%s\n" workload o.attempted
    o.failed
    (if o.correct then "" else ", CHECKS FAILED")

(* Append one record per workload run, for [--against]. *)
let append_record path ~workload ~seed ~traced o =
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path
  @@ fun oc ->
  Printf.fprintf oc
    "{\"workload\":%S,\"seed\":%d,\"trace\":%d,\"outcome\":%s}\n"
    workload seed
    (if traced then 1 else 0)
    (outcome_line o)

(* Run one workload in a child process of this executable; its rows pass
   through, its last line is its outcome. *)
let run_child ~workload ~seed ~seconds ~traced ~trace_file =
  let args =
    [
      Sys.executable_name;
      "--workload";
      workload;
      "--seed";
      string_of_int seed;
      "--seconds";
      Printf.sprintf "%g" seconds;
      "--trace";
      (if traced then "1" else "0");
    ]
    @
    match trace_file with
    | Some f ->
      [ "--trace-file"; Filename.remove_extension f ^ "." ^ workload ^ ".json" ]
    | None -> []
  in
  let ic =
    Unix.open_process_args_in Sys.executable_name (Array.of_list args)
  in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  let status = Unix.close_process_in ic in
  let lines = List.filter (fun l -> l <> "") lines in
  let last = List.nth_opt (List.rev lines) 0 in
  List.iter (fun l -> if Some l <> last then print_endline l) lines;
  match (status, last) with
  | (Unix.WEXITED (0 | 1), Some l) -> (
    try outcome_of_json (Obs_json.parse l)
    with _ -> failwith ("unreadable result from " ^ workload))
  | _ -> failwith (workload ^ " did not finish")

(* ---- comparing two sets of runs ---------------------------------------- *)

type bound = {
  b_name : string;
  b_unit : string;
  b_lower : bool;
  b_bound : float;
}

let read_spec path =
  let j = Obs_json.parse_file path in
  let metrics key =
    match Obs_json.member key j with
    | Some (Obs_json.List l) ->
      List.map
        (fun m ->
          let str k =
            match Obs_json.member k m with
            | Some (Obs_json.Str s) -> s
            | _ -> failwith (path ^ ": metric without " ^ k)
          in
          {
            b_name = str "name";
            b_unit = str "unit";
            b_lower = str "better" = "lower";
            b_bound =
              Option.value ~default:nan
                (Option.bind (Obs_json.member "bound" m) Obs_json.to_float_opt);
          })
        l
    | _ -> failwith (path ^ ": no " ^ key ^ " list")
  in
  (metrics "end_to_end", metrics "per_layer")

(* Untraced records, as (workload, seed) -> metric -> value. *)
let read_records path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.filter_map (fun l ->
         let j = Obs_json.parse l in
         let m k = Option.get (Obs_json.member k j) in
         match (m "workload", m "seed", m "trace") with
         | Obs_json.Str w, Obs_json.Int s, Obs_json.Int 0 ->
           Some ((w, s), (outcome_of_json (m "outcome")).metrics)
         | _ -> None)

(* One row per (workload, metric), by the paired-run rule: pairs share a
   seed; a win needs at least 10 pairs, the change ahead in at least 9 of
   every 10 of them (ties count for neither), and a median gap wider than
   the parent's quartile spread. A metric whose quartile spread, as a
   share of its median, exceeds its bound on either side is unresolved,
   unless every change run is better than every parent run. *)
let compare_runs ~spec ~parent ~change =
  let e2e, _ = read_spec spec in
  let parent = read_records parent and change = read_records change in
  let workloads =
    List.sort_uniq compare (List.map (fun ((w, _), _) -> w) change)
  in
  let worse = ref 0 in
  Printf.printf "%-20s %-18s %14s %14s %7s  %s\n" "workload" "metric" "parent"
    "change" "wins" "verdict";
  List.iter
    (fun w ->
      let pairs =
        List.filter_map
          (fun ((w', s), cm) ->
            if w' <> w then None
            else
              Option.map (fun pm -> (pm, cm)) (List.assoc_opt (w, s) parent))
          change
      in
      List.iter
        (fun b ->
          let value m =
            match List.find_opt (fun (n, _, _) -> n = b.b_name) m with
            | Some (_, v, _) -> v
            | None -> nan
          in
          let ps = List.map (fun (pm, _) -> value pm) pairs in
          let cs = List.map (fun (_, cm) -> value cm) pairs in
          let better x y = if b.b_lower then x < y else x > y in
          let n = List.length pairs in
          let wins =
            List.length
              (List.filter (fun (p, c) -> better c p) (List.combine ps cs))
          in
          let pq1, pm, pq3 = quartiles ps and cq1, cm, cq3 = quartiles cs in
          let spread q1 m q3 = ratio (q3 -. q1) (Float.abs m) in
          let dominates =
            n > 0
            && List.for_all (fun c -> List.for_all (fun p -> better c p) ps) cs
          in
          let worse_by =
            (if b.b_lower then cm -. pm else pm -. cm) /. Float.abs pm
          in
          let verdict =
            if n = 0 then "unresolved (no pairs)"
            else if
              n >= 10
              && 10 * wins >= 9 * n
              && better cm pm
              && Float.abs (cm -. pm) > pq3 -. pq1
            then "better"
            else if
              (spread pq1 pm pq3 > b.b_bound || spread cq1 cm cq3 > b.b_bound)
              && not dominates
            then "unresolved"
            else if worse_by > b.b_bound then begin
              incr worse;
              "worse"
            end
            else "same"
          in
          Printf.printf "%-20s %-18s %14.6g %14.6g %3d/%-3d  %s\n" w b.b_name
            pm cm wins n verdict)
        e2e)
    workloads;
  if !worse > 0 then 1 else 0

(* ---- smoke ------------------------------------------------------------ *)

(* One untraced and one traced op per workload, after the usual set-up
   checks, and every declared metric present with its declared unit. *)
let smoke ~spec ~seed =
  let e2e, layers = read_spec spec in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let words, quick = gc_probe_words () in
  Printf.printf "gc probe: 1000-cell list reads %.0f words (quick_stat: %.0f)\n"
    words quick;
  if Float.abs (words -. 3000.) > 150. then
    problem "gc probe read %.0f words for a 3000-word allocation" words;
  let declared = e2e @ layers in
  List.iter
    (fun w ->
      let o = measure w ~seed ~seconds:0. ~traced:true ~trace_file:None in
      if not o.correct || o.failed > 0 then problem "%s: checks failed" w.name;
      List.iter
        (fun b ->
          match List.find_opt (fun (n, _, _) -> n = b.b_name) o.metrics with
          | Some (_, v, u) when u = b.b_unit && Float.is_finite v -> ()
          | Some (_, _, u) ->
            problem "%s: %s printed as %S, declared %S" w.name b.b_name u
              b.b_unit
          | None -> problem "%s: %s not printed" w.name b.b_name)
        declared;
      List.iter
        (fun (n, _, _) ->
          if not (List.exists (fun b -> b.b_name = n) declared) then
            problem "%s: %s printed but not declared" w.name n)
        o.metrics)
    workloads;
  List.iter (Printf.printf "smoke: %s\n") (List.rev !problems);
  if !problems = [] then (print_endline "smoke: ok"; 0) else 1

(* ---- command line ----------------------------------------------------- *)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 20. in
  let traced = ref false and trace_file = ref None and json = ref None in
  let against = ref None and smoke_run = ref false in
  let spec = ref "BENCHMARK.json" in
  let some r v = r := Some v in
  Arg.parse
    [
      ( "--workload",
        Arg.Symbol (List.map (fun w -> w.name) workloads, some workload),
        " Run one workload in this process (default: each in a child)" );
      ("--seed", Arg.Set_int seed, "N Seed of the first op (default 1)");
      ( "--seconds",
        Arg.Set_float seconds,
        "S Measure each workload for S seconds (default 20)" );
      ( "--trace",
        Arg.Symbol ([ "0"; "1" ], fun t -> traced := t = "1"),
        " Run the traced pass and report the per-layer metrics" );
      ( "--trace-file",
        Arg.String (some trace_file),
        "FILE Write the traced pass's spans as Chrome trace JSON" );
      ( "--json",
        Arg.String (some json),
        "FILE Append each workload's outcome to FILE, one JSON line each" );
      ( "--against",
        Arg.String (some against),
        "FILE Compare the runs in --json with the parent's runs in FILE" );
      ( "--spec",
        Arg.Set_string spec,
        "FILE Metric declarations and bounds (default BENCHMARK.json)" );
      ( "--smoke",
        Arg.Set smoke_run,
        " One op per workload; check every declared metric is printed" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bp_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]";
  let record_to path ~workload o =
    append_record path ~workload ~seed:!seed ~traced:!traced o
  in
  let code =
    match (!against, !smoke_run, !workload) with
    | Some parent, _, _ -> (
      match !json with
      | Some change -> compare_runs ~spec:!spec ~parent ~change
      | None ->
        prerr_endline "--against needs --json FILE with the change's runs";
        2)
    | None, true, _ -> smoke ~spec:!spec ~seed:!seed
    | None, false, Some name ->
      let w = List.find (fun w -> w.name = name) workloads in
      let o =
        measure w ~seed:!seed ~seconds:!seconds ~traced:!traced
          ~trace_file:!trace_file
      in
      (* A traced run reports the per-layer metrics only. *)
      let o =
        if !traced then
          {
            o with
            metrics =
              List.filter
                (fun (n, _, _) -> List.mem_assoc n per_layer)
                o.metrics;
          }
        else o
      in
      print_rows name o;
      Option.iter (fun path -> record_to path ~workload:name o) !json;
      print_endline (outcome_line o);
      if o.correct then 0 else 1
    | None, false, None ->
      let outcomes =
        List.map
          (fun w ->
            let o =
              run_child ~workload:w.name ~seed:!seed ~seconds:!seconds
                ~traced:!traced ~trace_file:!trace_file
            in
            Option.iter (fun path -> record_to path ~workload:w.name o) !json;
            (w.name, o))
          workloads
      in
      let total f = List.fold_left (fun a (_, o) -> a + f o) 0 outcomes in
      let correct = List.for_all (fun (_, o) -> o.correct) outcomes in
      Printf.printf
        "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"workloads\":{%s}}\n"
        correct
        (total (fun o -> o.attempted))
        (total (fun o -> o.failed))
        (String.concat ","
           (List.map
              (fun (n, o) -> Printf.sprintf "%S:%s" n (outcome_line o))
              outcomes));
      if correct then 0 else 1
  in
  exit code
