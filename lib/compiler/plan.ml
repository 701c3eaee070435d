open Bp_util
module Graph = Bp_graph.Graph
module Machine = Bp_machine.Machine
module Align = Bp_transform.Align
module Buffering = Bp_transform.Buffering
module Parallelize = Bp_transform.Parallelize
module Schedulability = Bp_transform.Schedulability
module Dataflow = Bp_analysis.Dataflow
module Mapping = Bp_sim.Mapping
module Sim = Bp_sim.Sim
module Static_schedule = Bp_sim.Static_schedule
module Placement = Bp_placement.Placement

type policy = One_to_one | Greedy

let policy_name = function One_to_one -> "1:1" | Greedy -> "greedy"

type mapped = { groups : Graph.node_id list list; mapping : Mapping.t }

type t = {
  graph : Graph.t;
  machine : Machine.t;
  repairs : Align.repair list;
  buffers : Buffering.inserted list;
  decisions : Parallelize.decision list;
  analysis : Dataflow.t;
  schedulability : Schedulability.t;
  one_to_one : mapped;
  greedy : (mapped, Err.t) result;
  greedy_groups : Graph.node_id list list;
  schedule : Static_schedule.t;
  diagnostics : Diag.t list;
  timings : Pass.timing list;
}

let mapped t ~policy =
  match policy with
  | One_to_one -> t.one_to_one
  | Greedy -> ( match t.greedy with Ok m -> m | Error e -> Err.fail e)

let mapping t ~policy = (mapped t ~policy).mapping
let placement t ~policy = Placement.place t.analysis (mapping t ~policy)

let processors_needed t ~policy =
  match policy with
  | One_to_one -> List.length t.one_to_one.groups
  | Greedy -> List.length t.greedy_groups

let errors t = Diag.errors t.diagnostics

let run_plan ?max_time_s ?max_events ?chunk_pool ?elide ?observer
    ?channel_observer ?state_observer ~policy t () =
  Sim.run ?max_time_s ?max_events ?chunk_pool ?observer ?channel_observer
    ?state_observer ?elide ~graph:t.graph ~mapping:(mapping t ~policy)
    ~machine:t.machine ()

(* ---- rendering --------------------------------------------------------- *)

let pp_summary ppf t =
  Format.fprintf ppf
    "compiled: %d nodes (%d buffers inserted, %d repairs, %d kernels \
     parallelized); 1:1 needs %d PEs, greedy needs %d PEs@,"
    (Graph.size t.graph)
    (List.length t.buffers) (List.length t.repairs)
    (List.length t.decisions)
    (processors_needed t ~policy:One_to_one)
    (processors_needed t ~policy:Greedy);
  List.iter
    (fun (d : Parallelize.decision) ->
      Format.fprintf ppf "  %s -> x%d (%s)@," d.Parallelize.original
        d.Parallelize.degree
        (match d.Parallelize.reason with
        | Parallelize.Cpu_bound -> "cpu"
        | Parallelize.Memory_bound -> "memory"
        | Parallelize.Capped_by_dependency -> "dependency-capped"))
    t.decisions

let pp_timings ppf t =
  Format.fprintf ppf "@[<v>compile passes:@,";
  List.iter
    (fun (p : Pass.timing) ->
      let delta before after =
        if after = before then "" else Printf.sprintf "%+d" (after - before)
      in
      Format.fprintf ppf "  %-14s %8.3f ms  nodes %d%s, channels %d%s@,"
        p.Pass.pass (1000. *. p.Pass.wall_s) p.Pass.nodes_after
        (delta p.Pass.nodes_before p.Pass.nodes_after)
        p.Pass.channels_after
        (delta p.Pass.channels_before p.Pass.channels_after))
    t.timings;
  Format.fprintf ppf "@]"

let pp_diagnostics ppf t =
  match t.diagnostics with
  | [] -> Format.fprintf ppf "diagnostics: none@,"
  | ds ->
    Format.fprintf ppf "@[<v>diagnostics (%d):@," (List.length ds);
    List.iter (fun d -> Format.fprintf ppf "  %a@," Diag.pp d) ds;
    Format.fprintf ppf "@]"

let pp_mapped ppf t policy =
  let p = placement t ~policy in
  Format.fprintf ppf
    "  %-7s %d PEs, placement %dx%d mesh, %.0f word-hops/frame@,"
    (policy_name policy)
    (List.length (mapped t ~policy).groups)
    p.Placement.mesh_side p.Placement.mesh_side p.Placement.cost

let pp_explain ppf t =
  Format.fprintf ppf "@[<v>%a%a" pp_timings t pp_diagnostics t;
  Format.fprintf ppf "schedulability: %s (%d nodes, predicted %d PEs 1:1)@,"
    (if t.schedulability.Schedulability.schedulable then "schedulable"
     else "NOT schedulable")
    (List.length t.schedulability.Schedulability.nodes)
    t.schedulability.Schedulability.predicted_pe_count;
  (match t.schedulability.Schedulability.bottleneck with
  | Some b ->
    Format.fprintf ppf "  busiest: %s at %.0f%% of one PE@,"
      b.Schedulability.name
      (100. *. b.Schedulability.utilization)
  | None -> ());
  Format.fprintf ppf "mappings:@,";
  pp_mapped ppf t One_to_one;
  (match t.greedy with
  | Ok _ -> pp_mapped ppf t Greedy
  | Error e ->
    Format.fprintf ppf "  %-7s unavailable: %a@," "greedy" Err.pp e);
  Format.fprintf ppf "@]"
