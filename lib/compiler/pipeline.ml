open Bp_util
module Graph = Bp_graph.Graph
module Machine = Bp_machine.Machine
module Align = Bp_transform.Align
module Buffering = Bp_transform.Buffering
module Parallelize = Bp_transform.Parallelize
module Multiplex = Bp_transform.Multiplex
module Schedulability = Bp_transform.Schedulability
module Dataflow = Bp_analysis.Dataflow
module Mapping = Bp_sim.Mapping
module Static_schedule = Bp_sim.Static_schedule

type pass_timing = Pass.timing = {
  pass : string;
  wall_s : float;
  nodes_before : int;
  nodes_after : int;
  channels_before : int;
  channels_after : int;
}

type t = Plan.t = {
  graph : Graph.t;
  machine : Machine.t;
  repairs : Align.repair list;
  buffers : Buffering.inserted list;
  decisions : Parallelize.decision list;
  analysis : Dataflow.t;
  schedulability : Schedulability.t;
  one_to_one : Plan.mapped;
  greedy : (Plan.mapped, Err.t) result;
  greedy_groups : Graph.node_id list list;
  schedule : Static_schedule.t;
  diagnostics : Diag.t list;
  timings : Pass.timing list;
}

(* ---- the compile state the passes share -------------------------------- *)

type cstate = {
  st_graph : Graph.t;
  st_machine : Machine.t;
  st_align_policy : Align.policy option;
  st_diags : Diag.buffer;
  mutable st_repairs : Align.repair list;
  mutable st_buffers : Buffering.inserted list;
  mutable st_decisions : Parallelize.decision list;
  mutable st_analysis : Dataflow.t option;
  mutable st_sched : Schedulability.t option;
  mutable st_one_groups : Graph.node_id list list;
  mutable st_one_mapping : Mapping.t option;
  mutable st_greedy_groups : Graph.node_id list list;
  mutable st_greedy_mapping : (Mapping.t, Err.t) result option;
  mutable st_schedule : Static_schedule.t option;
}

let analysis_exn st =
  match st.st_analysis with
  | Some an -> an
  | None -> Err.graphf "internal: pass ran before any analysis"

(* ---- invariants --------------------------------------------------------

   Each invariant raises the matching [Err] class on violation; the pass
   manager records the failure as a diagnostic and wraps the error with
   "pass <name>/<invariant>". Structural invariants re-analyze so they
   judge the graph as the *next* pass will see it; the fresh analysis is
   kept so subsequent passes and invariants do not pay for it twice. *)

let inv_graph_valid = ("graph-valid", fun st -> Graph.validate st.st_graph)

let reanalyze st = st.st_analysis <- Some (Dataflow.analyze st.st_graph)

let check_no_misalignment st =
  match Dataflow.misalignments (analysis_exn st) with
  | [] -> ()
  | ms -> Err.alignf "%d misalignment(s) survived" (List.length ms)

let check_all_buffered st =
  let an = analysis_exn st in
  List.iter
    (fun c ->
      if Dataflow.needs_buffer an c then
        Err.graphf "channel %d still needs a buffer" c.Graph.chan_id)
    (Graph.channels st.st_graph)

let inv_no_misalignment =
  ( "no-misalignment",
    fun st ->
      reanalyze st;
      check_no_misalignment st )

let inv_all_buffered =
  ( "no-unbuffered-channel",
    fun st ->
      reanalyze st;
      check_all_buffered st;
      check_no_misalignment st )

(* After analyze-post the stored analysis IS the final one; check it
   without re-analyzing. *)
let inv_post_clean =
  ( "elaboration-clean",
    fun st ->
      check_no_misalignment st;
      check_all_buffered st )

let inv_mappings_total =
  ( "all-on-chip-mapped",
    fun st ->
      let check = function
        | None | Some (Error _) -> ()
        | Some (Ok m) ->
          List.iter
            (fun (n : Graph.node) ->
              match n.Graph.spec.Bp_kernel.Spec.role with
              | Bp_kernel.Spec.Source | Bp_kernel.Spec.Const_source
              | Bp_kernel.Spec.Sink ->
                ()
              | _ ->
                if Mapping.processor_of m n.Graph.id = None then
                  Err.graphf "node %s escaped the mapping" n.Graph.name)
            (Graph.nodes st.st_graph)
      in
      check (Option.map (fun m -> Ok m) st.st_one_mapping);
      check st.st_greedy_mapping )

(* ---- the passes -------------------------------------------------------- *)

let pass_validate = Pass.v "validate" (fun st -> Graph.validate st.st_graph)

let pass_analyze_pre =
  Pass.v "analyze-pre" (fun st ->
      st.st_analysis <- Some (Dataflow.analyze st.st_graph))

let pass_align =
  Pass.v "align"
    ~invariants:[ inv_graph_valid; inv_no_misalignment ]
    (fun st ->
      st.st_repairs <- Align.run ?policy:st.st_align_policy st.st_graph;
      List.iter
        (fun (r : Align.repair) ->
          let l, ri, tp, b = r.Align.margins in
          Diag.addf st.st_diags Diag.Info ~pass:"align"
            ~subject:(Diag.Node (Graph.node st.st_graph r.Align.inserted).Graph.name)
            "inserted repair (l=%d r=%d t=%d b=%d)" l ri tp b)
        st.st_repairs)

let pass_buffering =
  Pass.v "buffering"
    ~invariants:[ inv_graph_valid; inv_all_buffered ]
    (fun st ->
      st.st_buffers <- Buffering.run st.st_graph;
      List.iter
        (fun (b : Buffering.inserted) ->
          Diag.addf st.st_diags Diag.Info ~pass:"buffering"
            ~subject:
              (Diag.Node (Graph.node st.st_graph b.Buffering.buffer_node).Graph.name)
            "inserted buffer, storage [%dx%d]"
            b.Buffering.storage.Bp_geometry.Size.w
            b.Buffering.storage.Bp_geometry.Size.h)
        st.st_buffers)

let pass_parallelize =
  Pass.v "parallelize" ~invariants:[ inv_graph_valid ] (fun st ->
      st.st_decisions <- Parallelize.run st.st_machine st.st_graph;
      List.iter
        (fun (d : Parallelize.decision) ->
          Diag.addf st.st_diags Diag.Info ~pass:"parallelize"
            ~subject:(Diag.Node d.Parallelize.original)
            "parallelized x%d (%s)" d.Parallelize.degree
            (match d.Parallelize.reason with
            | Parallelize.Cpu_bound -> "cpu-bound"
            | Parallelize.Memory_bound -> "memory-bound"
            | Parallelize.Capped_by_dependency -> "dependency-capped"))
        st.st_decisions)

let pass_analyze_post =
  Pass.v "analyze-post" ~invariants:[ inv_post_clean ] (fun st ->
      st.st_analysis <- Some (Dataflow.analyze st.st_graph))

let pass_schedulability =
  Pass.v "schedulability" (fun st ->
      let sched = Schedulability.check st.st_machine st.st_graph in
      st.st_sched <- Some sched;
      List.iter
        (fun (n : Schedulability.node_report) ->
          if not n.Schedulability.schedulable then
            Diag.addf st.st_diags Diag.Warning ~pass:"schedulability"
              ~subject:(Diag.Node n.Schedulability.name)
              "predicted utilization %.0f%% exceeds one PE's budget"
              (100. *. n.Schedulability.utilization))
        sched.Schedulability.nodes)

let pass_map =
  Pass.v "map" ~invariants:[ inv_mappings_total ] (fun st ->
      let g = st.st_graph in
      let one_groups = Multiplex.one_to_one g in
      st.st_one_groups <- one_groups;
      st.st_one_mapping <- Some (Mapping.of_groups g one_groups);
      let greedy_groups = Multiplex.greedy st.st_machine g in
      st.st_greedy_groups <- greedy_groups;
      let wanted = List.length greedy_groups in
      if wanted > st.st_machine.Machine.max_pes then begin
        let e =
          Err.Resource_exhausted
            (Printf.sprintf "program needs %d PEs but the machine has %d"
               wanted st.st_machine.Machine.max_pes)
        in
        Diag.addf st.st_diags Diag.Warning ~pass:"map"
          "greedy mapping needs %d PEs but the machine has %d; only the \
           1:1 mapping is realized"
          wanted st.st_machine.Machine.max_pes;
        st.st_greedy_mapping <- Some (Error e)
      end
      else
        st.st_greedy_mapping <- Some (Ok (Mapping.of_groups g greedy_groups));
      Diag.addf st.st_diags Diag.Info ~pass:"map"
        "1:1 uses %d PEs, greedy packs them onto %d"
        (List.length one_groups) wanted)

(* The schedule pass is a pure artifact producer: it mutates nothing in
   the graph, so its invariants are about the artifact itself. *)
let inv_regions_partition =
  ( "regions-partition",
    fun st ->
      match st.st_schedule with
      | None -> Err.graphf "internal: schedule invariant ran before the pass"
      | Some sched ->
        if not sched.Static_schedule.truncated then begin
          let seen = Hashtbl.create 32 in
          List.iter
            (fun (r : Static_schedule.region) ->
              List.iter
                (fun id ->
                  if Hashtbl.mem seen id then
                    Err.graphf "node %d appears in two schedule regions" id;
                  Hashtbl.replace seen id ())
                r.Static_schedule.r_nodes)
            sched.Static_schedule.regions;
          List.iter
            (fun (n : Graph.node) ->
              if not (Hashtbl.mem seen n.Graph.id) then
                Err.graphf "node %s missing from the schedule regions"
                  n.Graph.name)
            (Graph.nodes st.st_graph)
        end )

let pass_schedule =
  Pass.v "schedule" ~invariants:[ inv_regions_partition ] (fun st ->
      let mapping =
        match st.st_one_mapping with
        | Some m -> m
        | None -> Err.graphf "internal: schedule pass ran before map"
      in
      let sched = Static_schedule.build ~graph:st.st_graph ~mapping () in
      st.st_schedule <- Some sched;
      if sched.Static_schedule.truncated then
        Diag.addf st.st_diags Diag.Warning ~pass:"schedule"
          "recorder truncated after %d firings; simulation falls back to \
           fully event-driven dispatch"
          sched.Static_schedule.recorded_firings
      else
        Diag.addf st.st_diags Diag.Info ~pass:"schedule"
          "%d regions (%d static), %d kernels tabled, coverage bound \
           %.0f%% of %d recorded firings"
          (List.length sched.Static_schedule.regions)
          (Static_schedule.static_regions sched)
          (List.length sched.Static_schedule.tables)
          (100. *. Static_schedule.coverage_bound sched)
          sched.Static_schedule.recorded_firings)

(* The sizing prefix, passes 1-8: everything the Section V PE counts and
   the Section IV verdict depend on. [size] stops here; [compile] goes on
   to schedule. *)
let sizing_passes =
  [
    pass_validate;
    pass_analyze_pre;
    pass_align;
    pass_buffering;
    pass_parallelize;
    pass_analyze_post;
    pass_schedulability;
    pass_map;
  ]

let passes = sizing_passes @ [ pass_schedule ]

let run_passes ?align_policy ?after_pass ~diags ~timings ~machine g passes =
  let st =
    {
      st_graph = g;
      st_machine = machine;
      st_align_policy = align_policy;
      st_diags = diags;
      st_repairs = [];
      st_buffers = [];
      st_decisions = [];
      st_analysis = None;
      st_sched = None;
      st_one_groups = [];
      st_one_mapping = None;
      st_greedy_groups = [];
      st_greedy_mapping = None;
      st_schedule = None;
    }
  in
  Pass.run_all ~graph:(fun st -> st.st_graph) ~diags ~timings ?after_pass st
    passes;
  st

let require what = function
  | Some v -> v
  | None -> Err.graphf "internal: compile finished without %s" what

let compile ?align_policy ?diags ?after_pass ~machine g =
  let diags = match diags with Some d -> d | None -> Diag.buffer () in
  let timings = ref [] in
  let after_pass =
    Option.map (fun f ~pass st -> f ~pass st.st_graph) after_pass
  in
  let st =
    run_passes ?align_policy ?after_pass ~diags ~timings ~machine g passes
  in
  {
    graph = g;
    machine;
    repairs = st.st_repairs;
    buffers = st.st_buffers;
    decisions = st.st_decisions;
    analysis = require "an analysis" st.st_analysis;
    schedulability = require "a schedulability report" st.st_sched;
    one_to_one =
      {
        Plan.groups = st.st_one_groups;
        mapping = require "a 1:1 mapping" st.st_one_mapping;
      };
    greedy =
      Result.map
        (fun mapping -> { Plan.groups = st.st_greedy_groups; mapping })
        (require "a greedy mapping" st.st_greedy_mapping);
    greedy_groups = st.st_greedy_groups;
    schedule = require "a schedule" st.st_schedule;
    diagnostics = Diag.list diags;
    timings = !timings;
  }

type sizing = {
  one_to_one_pes : int;
  greedy_pes : int;
  schedulability : Schedulability.t;
}

let size ?align_policy ~machine g =
  let st =
    run_passes ?align_policy ~diags:(Diag.buffer ()) ~timings:(ref [])
      ~machine g sizing_passes
  in
  {
    one_to_one_pes = List.length st.st_one_groups;
    greedy_pes = List.length st.st_greedy_groups;
    schedulability = require "a schedulability report" st.st_sched;
  }

let pp_summary = Plan.pp_summary
let pp_passes = Plan.pp_timings
