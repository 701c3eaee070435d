open Bp_geometry
module Graph = Bp_graph.Graph
module Spec = Bp_kernel.Spec
module Machine = Bp_machine.Machine
module Dataflow = Bp_analysis.Dataflow
module Stream = Bp_analysis.Stream
module Pipeline = Bp_compiler.Pipeline
module Plan = Bp_compiler.Plan
module Sim = Bp_sim.Sim
module Mapping = Bp_sim.Mapping
module App = Bp_apps.App
module Table = Bp_util.Table
module Stats = Bp_util.Stats

let example ?(frame = Size.v 24 18) ?(rate = Rate.hz 30.) ?(n_frames = 3) () =
  Bp_apps.Image_pipeline.v ~frame ~rate ~n_frames ()

(* ---- Figure 2 --------------------------------------------------------- *)

type fig2_row = {
  kernel : string;
  iterations : Size.t option;
  rate_hz : float option;
  inset : Inset.t option;
}

let fig2 ppf =
  let inst = example () in
  let g = inst.App.graph in
  let an = Dataflow.analyze g in
  let rows =
    List.map
      (fun (n : Graph.node) ->
        let info = Dataflow.info_of an n.Graph.id in
        let inset =
          match Graph.out_channels g n.Graph.id () with
          | c :: _ ->
            Some (Dataflow.stream_of an c.Graph.chan_id).Stream.inset
          | [] -> None
        in
        {
          kernel = n.Graph.name;
          iterations = info.Dataflow.iterations;
          rate_hz = Option.map Rate.to_hz info.Dataflow.rate;
          inset;
        })
      (Graph.topological_order g)
  in
  let table =
    Table.create ~title:"Figure 2: iteration sizes, rates and insets"
      [ "kernel"; "iterations"; "rate"; "output inset" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.kernel;
          (match r.iterations with Some s -> Size.to_string s | None -> "-");
          (match r.rate_hz with Some f -> Printf.sprintf "%gHz" f | None -> "const");
          (match r.inset with Some i -> Inset.to_string i | None -> "-");
        ])
    rows;
  Format.fprintf ppf "%s@." (Table.render table);
  rows

(* ---- Figure 3 --------------------------------------------------------- *)

type fig3_result = {
  buffers : (string * Size.t) list;
  insets : (string * (int * int * int * int)) list;
}

let fig3 ppf =
  let inst = example () in
  let g = inst.App.graph in
  let repairs = Bp_transform.Align.run g in
  let buffers = Bp_transform.Buffering.run g in
  let result =
    {
      buffers =
        List.map
          (fun (b : Bp_transform.Buffering.inserted) ->
            ((Graph.node g b.Bp_transform.Buffering.buffer_node).Graph.name,
             b.Bp_transform.Buffering.storage))
          buffers;
      insets =
        List.map
          (fun (r : Bp_transform.Align.repair) ->
            ( (Graph.node g r.Bp_transform.Align.inserted).Graph.name,
              r.Bp_transform.Align.margins ))
          repairs;
    }
  in
  let table =
    Table.create ~title:"Figure 3: automatic buffering and trimming"
      [ "inserted kernel"; "detail" ]
  in
  List.iter
    (fun (name, storage) ->
      Table.add_row table
        [ name; Printf.sprintf "storage [%dx%d]" storage.Size.w storage.Size.h ])
    result.buffers;
  List.iter
    (fun (name, (l, r, t, b)) ->
      Table.add_row table
        [ name; Printf.sprintf "trim l=%d r=%d t=%d b=%d" l r t b ])
    result.insets;
  Format.fprintf ppf "%s@." (Table.render table);
  result

(* ---- Figure 4 --------------------------------------------------------- *)

type fig4_result = {
  replicas : (string * int) list;
  splits : int;
  joins : int;
  total_nodes : int;
  real_time_met : bool;
}

let fig4 ppf =
  let inst = example ~frame:(Size.v 48 36) ~rate:(Rate.hz 40.) () in
  let machine = Machine.small_memory in
  let compiled = Pipeline.compile ~machine inst.App.graph in
  let g = compiled.Pipeline.graph in
  let census role =
    List.length
      (List.filter
         (fun (n : Graph.node) -> n.Graph.spec.Spec.role = role)
         (Graph.nodes g))
  in
  let replicas =
    List.map
      (fun (d : Bp_transform.Parallelize.decision) ->
        (d.Bp_transform.Parallelize.original, d.Bp_transform.Parallelize.degree))
      compiled.Pipeline.decisions
  in
  let result = Plan.run_plan ~policy:Plan.One_to_one compiled () in
  let verdict =
    Sim.real_time_verdict result ~expected_frames:inst.App.n_frames
      ~period_s:(App.period_s inst) ()
  in
  let out =
    {
      replicas;
      splits = census Spec.Split;
      joins = census Spec.Join;
      total_nodes = Graph.size g;
      real_time_met = verdict.Sim.met;
    }
  in
  let table =
    Table.create ~title:"Figure 4: automatically parallelized example"
      [ "kernel"; "replicas" ]
  in
  List.iter
    (fun (k, d) -> Table.add_row table [ k; string_of_int d ])
    out.replicas;
  Table.add_rule table;
  Table.add_row table [ "split kernels"; string_of_int out.splits ];
  Table.add_row table [ "join kernels"; string_of_int out.joins ];
  Table.add_row table [ "total nodes"; string_of_int out.total_nodes ];
  Table.add_row table
    [ "meets real-time"; (if out.real_time_met then "yes" else "no") ];
  Format.fprintf ppf "%s@." (Table.render table);
  out

(* ---- Figure 5 --------------------------------------------------------- *)

let fig5 ppf =
  let cases =
    [
      ("5x5 conv, step 1", Bp_kernels.Conv.input_window ~w:5 ~h:5);
      ("3x3 median, step 1", Window.windowed 3 3);
      ("5x5 coeff, step 5", Window.block 5 5);
      ("1x1 decimate, step 2", Window.v ~step:(Step.v 2 2) Size.one);
    ]
  in
  let rows =
    List.map (fun (l, w) -> (l, Bp_analysis.Reuse.of_window w)) cases
  in
  let table =
    Table.create ~title:"Figure 5(b): data access and reuse per iteration"
      [ "window"; "read"; "new"; "reused"; "reuse" ]
  in
  List.iter
    (fun (l, (r : Bp_analysis.Reuse.t)) ->
      Table.add_row table
        [
          l;
          string_of_int r.Bp_analysis.Reuse.elements_per_fire;
          string_of_int r.Bp_analysis.Reuse.new_per_fire;
          string_of_int r.Bp_analysis.Reuse.reused_per_fire;
          Stats.pct r.Bp_analysis.Reuse.reuse_fraction;
        ])
    rows;
  Format.fprintf ppf "%s@." (Table.render table);
  rows

(* ---- Figure 8 --------------------------------------------------------- *)

type fig8_result = {
  median_inset : Inset.t;
  conv_inset : Inset.t;
  trim_margins : (int * int * int * int) list;
}

let fig8 ppf =
  let inst = example () in
  let g = inst.App.graph in
  let an = Dataflow.analyze g in
  let subtract = Graph.node_by_name g "Subtract" in
  let inset_of port =
    match Graph.in_channel g subtract.Graph.id port with
    | Some c ->
      let s = Dataflow.stream_of an c.Graph.chan_id in
      (* Add the consumer window's own contribution, as the analysis does. *)
      Inset.add s.Stream.inset
        (Inset.of_window
           (Spec.find_input subtract.Graph.spec port).Bp_kernel.Port.window)
    | None -> Inset.zero
  in
  let median_inset = inset_of "in0" and conv_inset = inset_of "in1" in
  let repairs = Bp_transform.Align.run g in
  let out =
    {
      median_inset;
      conv_inset;
      trim_margins =
        List.map (fun (r : Bp_transform.Align.repair) -> r.Bp_transform.Align.margins) repairs;
    }
  in
  let table =
    Table.create ~title:"Figure 8: inset alignment at the subtract kernel"
      [ "stream"; "inset" ]
  in
  Table.add_row table [ "median path"; Inset.to_string out.median_inset ];
  Table.add_row table [ "convolution path"; Inset.to_string out.conv_inset ];
  List.iter
    (fun (l, r, t, b) ->
      Table.add_row table
        [ "trim inserted"; Printf.sprintf "l=%d r=%d t=%d b=%d" l r t b ])
    out.trim_margins;
  Format.fprintf ppf "%s@." (Table.render table);
  out

(* ---- Figure 9 --------------------------------------------------------- *)

type fig9_row = {
  variant : Bp_apps.Reuse_variants.variant;
  stalls : int;
  late : int;
  met : bool;
  worst_interval_ms : float;
  exact : bool;
}

let fig9 ppf =
  let run variant =
    let inst =
      Bp_apps.Reuse_variants.v ~variant ~frame:(Size.v 24 18)
        ~rate:(Rate.hz 65.) ~n_frames:4 ()
    in
    let g = inst.App.graph in
    let result =
      Sim.run ~graph:g ~mapping:(Mapping.one_to_one g)
        ~machine:Machine.default ()
    in
    let diffs, ok = App.verify inst result in
    ignore diffs;
    let verdict =
      Sim.real_time_verdict result ~expected_frames:inst.App.n_frames
        ~period_s:(App.period_s inst) ()
    in
    {
      variant;
      stalls = result.Sim.input_stalls;
      late = result.Sim.late_emissions;
      met = verdict.Sim.met;
      worst_interval_ms = 1000. *. verdict.Sim.worst_frame_interval_s;
      exact = ok || result.Sim.input_stalls > 0 (* content still exact *);
    }
  in
  let rows =
    List.map run
      [
        Bp_apps.Reuse_variants.Round_robin;
        Bp_apps.Reuse_variants.Blocked;
        Bp_apps.Reuse_variants.Blocked_buffered;
      ]
  in
  let table =
    Table.create ~title:"Figure 9: reuse-optimized buffering ablation"
      [ "variant"; "input stalls"; "late"; "worst frame"; "meets rate" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          Bp_apps.Reuse_variants.variant_name r.variant;
          string_of_int r.stalls;
          string_of_int r.late;
          Printf.sprintf "%.2fms" r.worst_interval_ms;
          (if r.met then "yes" else "no");
        ])
    rows;
  Format.fprintf ppf "%s@." (Table.render table);
  rows

(* ---- Figure 10 -------------------------------------------------------- *)

type fig10_result = {
  ranges : (int * int) array;
  overlap_columns : int list;
  pattern : int array;
  exact : bool;
}

let fig10 ppf =
  let frame = Size.v 96 16 in
  let window = Bp_kernels.Conv.input_window ~w:5 ~h:5 in
  let inst =
    Bp_apps.Parallel_buffer.v ~frame ~rate:(Rate.hz 20.) ~n_frames:2 ()
  in
  let machine = Machine.small_memory in
  let compiled = Pipeline.compile ~machine inst.App.graph in
  let g = compiled.Pipeline.graph in
  (* Recover the column-split ranges the compiler chose. *)
  let ranges =
    List.find_map
      (fun (n : Graph.node) ->
        match n.Graph.meta with
        | Graph.Column_split_meta { ranges } -> Some ranges
        | _ -> None)
      (Graph.nodes g)
  in
  let ranges = Option.value ranges ~default:[||] in
  let pattern =
    List.find_map
      (fun (n : Graph.node) ->
        match n.Graph.meta with
        | Graph.Pattern_join_meta { pattern; _ } -> Some pattern
        | _ -> None)
      (Graph.nodes g)
  in
  let pattern =
    Option.value pattern
      ~default:
        (Bp_kernels.Split_join.stripe_windows_per_row ~frame_w:frame.Size.w
           ~window ~ranges)
  in
  let overlap_columns =
    List.concat
      (List.init (Array.length ranges - 1 |> max 0) (fun k ->
           let _, b = ranges.(k) and a', _ = ranges.(k + 1) in
           List.init (max 0 (b - a')) (fun i -> a' + i)))
  in
  let result = Plan.run_plan ~policy:Plan.One_to_one compiled () in
  let _, ok = App.verify inst result in
  let out = { ranges; overlap_columns; pattern; exact = ok } in
  let table =
    Table.create ~title:"Figure 10: column-split buffer with overlap"
      [ "stripe"; "input columns"; "windows/row" ]
  in
  Array.iteri
    (fun k (a, b) ->
      Table.add_row table
        [
          string_of_int k;
          Printf.sprintf "[%d, %d)" a b;
          string_of_int out.pattern.(k);
        ])
    out.ranges;
  Table.add_rule table;
  Table.add_row table
    [
      "overlap";
      Printf.sprintf "%d columns replicated" (List.length out.overlap_columns);
      "";
    ];
  Table.add_row table
    [ "functional"; (if out.exact then "exact" else "MISMATCH"); "" ];
  Format.fprintf ppf "%s@." (Table.render table);
  out

(* ---- Figure 11 -------------------------------------------------------- *)

type fig11_row = {
  config : string;
  buffers : int;
  compute_replicas : int;
  pes_1to1 : int;
  met : bool;
}

let fig11 ppf =
  let corners =
    [
      ("Small/Slow", Size.v 24 18, Rate.hz 20.);
      ("Small/Fast", Size.v 24 18, Rate.hz 40.);
      ("Big/Slow", Size.v 48 36, Rate.hz 20.);
      ("Big/Fast", Size.v 48 36, Rate.hz 40.);
    ]
  in
  let machine = Machine.small_memory in
  let rows =
    List.map
      (fun (config, frame, rate) ->
        let inst = example ~frame ~rate () in
        let compiled = Pipeline.compile ~machine inst.App.graph in
        let g = compiled.Pipeline.graph in
        let count role =
          List.length
            (List.filter
               (fun (n : Graph.node) -> n.Graph.spec.Spec.role = role)
               (Graph.nodes g))
        in
        let result = Plan.run_plan ~policy:Plan.One_to_one compiled () in
        let verdict =
          Sim.real_time_verdict result ~expected_frames:inst.App.n_frames
            ~period_s:(App.period_s inst) ()
        in
        let _, functional = App.verify inst result in
        {
          config;
          buffers = count Spec.Buffer;
          compute_replicas = count Spec.Compute;
          pes_1to1 = Plan.processors_needed compiled ~policy:Plan.One_to_one;
          met = verdict.Sim.met && functional;
        })
      corners
  in
  let table =
    Table.create
      ~title:"Figure 11: parallelization across input sizes and rates"
      [ "config"; "buffer kernels"; "compute kernels"; "PEs (1:1)"; "meets rate" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.config;
          string_of_int r.buffers;
          string_of_int r.compute_replicas;
          string_of_int r.pes_1to1;
          (if r.met then "yes" else "no");
        ])
    rows;
  Format.fprintf ppf "%s@." (Table.render table);
  rows

(* ---- Figure 12 / Section V ------------------------------------------- *)

type fig12_result = {
  pes_1to1 : int;
  pes_greedy : int;
  util_1to1 : float;
  util_greedy : float;
}

let fig12 ppf =
  let inst = example () in
  let machine = Machine.default in
  let compiled = Pipeline.compile ~machine inst.App.graph in
  let measure policy =
    let result = Plan.run_plan ~policy compiled () in
    (Array.length result.Sim.procs, Sim.average_utilization result)
  in
  let pes_1to1, util_1to1 = measure Plan.One_to_one in
  let pes_greedy, util_greedy = measure Plan.Greedy in
  let out = { pes_1to1; pes_greedy; util_1to1; util_greedy } in
  let table =
    Table.create
      ~title:"Figure 12 / Section V: 1:1 vs greedy kernel-to-PE mapping"
      [ "mapping"; "PEs"; "avg utilization" ]
  in
  Table.add_row table
    [ "1:1"; string_of_int out.pes_1to1; Stats.pct out.util_1to1 ];
  Table.add_row table
    [ "greedy"; string_of_int out.pes_greedy; Stats.pct out.util_greedy ];
  Table.add_row table
    [
      "improvement";
      "";
      Printf.sprintf "%.2fx" (out.util_greedy /. out.util_1to1);
    ];
  Format.fprintf ppf "%s@." (Table.render table);
  out

(* ---- Figure 13 -------------------------------------------------------- *)

type fig13_row = {
  label : string;
  mapping : string;
  pes : int;
  run : float;
  read : float;
  write : float;
  total : float;
  rt_met : bool;
  functional : bool;
}

type fig13_result = { rows : fig13_row list; average_improvement : float }

let fig13 ppf =
  let rows =
    List.concat_map
      (fun (e : Bp_apps.Suite.entry) ->
        let inst = e.Bp_apps.Suite.build () in
        let compiled =
          Pipeline.compile ~machine:e.Bp_apps.Suite.machine inst.App.graph
        in
        List.map
          (fun policy ->
            let result = Plan.run_plan ~policy compiled () in
            let run, read, write = Sim.utilization_breakdown result in
            let verdict =
              Sim.real_time_verdict result
                ~expected_frames:inst.App.n_frames
                ~period_s:(App.period_s inst) ()
            in
            let _, functional = App.verify inst result in
            {
              label = e.Bp_apps.Suite.label;
              mapping = (match policy with Plan.Greedy -> "GM" | Plan.One_to_one -> "1:1");
              pes = Array.length result.Sim.procs;
              run;
              read;
              write;
              total = run +. read +. write;
              rt_met = verdict.Sim.met;
              functional;
            })
          [ Plan.One_to_one; Plan.Greedy ])
      Bp_apps.Suite.entries
  in
  let improvements =
    List.filter_map
      (fun (e : Bp_apps.Suite.entry) ->
        let l = e.Bp_apps.Suite.label in
        let find m =
          List.find_opt (fun r -> r.label = l && r.mapping = m) rows
        in
        match (find "1:1", find "GM") with
        | Some a, Some b when a.total > 0. -> Some (b.total /. a.total)
        | _ -> None)
      Bp_apps.Suite.entries
  in
  let out =
    { rows; average_improvement = Stats.mean improvements }
  in
  let table =
    Table.create
      ~title:"Figure 13: processor utilization (run/read/write), 1:1 vs GM"
      [ "bench"; "map"; "PEs"; "run"; "read"; "write"; "total"; "rt"; "exact" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.label;
          r.mapping;
          string_of_int r.pes;
          Stats.pct r.run;
          Stats.pct r.read;
          Stats.pct r.write;
          Stats.pct r.total;
          (if r.rt_met then "yes" else "no");
          (if r.functional then "yes" else "no");
        ])
    rows;
  Table.add_rule table;
  Table.add_row table
    [
      "avg";
      "GM/1:1";
      "";
      "";
      "";
      "";
      Printf.sprintf "%.2fx" out.average_improvement;
      "";
      "";
    ];
  Format.fprintf ppf "%s@." (Table.render table);
  out

(* ---- PE utilization table (observability layer) ----------------------- *)

type util_row = {
  u_label : string;
  u_mapping : string;
  u_pes : int;
  u_avg : float;
  u_min : float;
  u_max : float;
  u_busiest : string;
}

let utilization_table ppf =
  let rows =
    List.concat_map
      (fun (e : Bp_apps.Suite.entry) ->
        let inst = e.Bp_apps.Suite.build () in
        let compiled =
          Pipeline.compile ~machine:e.Bp_apps.Suite.machine inst.App.graph
        in
        List.map
          (fun policy ->
            let obs =
              Bp_obs.Instrument.create ~graph:compiled.Pipeline.graph ()
            in
            let result =
              Plan.run_plan
                ~observer:(Bp_obs.Instrument.observer obs)
                ~channel_observer:(Bp_obs.Instrument.channel_observer obs)
                ~policy compiled ()
            in
            Bp_obs.Instrument.finalize obs ~result;
            let m = Bp_obs.Instrument.metrics obs in
            let pes = Array.length result.Sim.procs in
            let utils =
              List.init pes (fun p ->
                  Option.value ~default:0.
                    (Bp_obs.Metrics.gauge m (Printf.sprintf "pe.%d.util" p)))
            in
            (* Busiest kernel straight from the metrics contract: the
               [kernel.<name>.service_s] histogram with the largest sum. *)
            let busiest =
              List.fold_left
                (fun (best, best_sum) name ->
                  match Bp_obs.Metrics.histogram m name with
                  | Some h when h.Bp_obs.Metrics.h_sum > best_sum ->
                    let stripped =
                      String.sub name 7 (String.length name - 7 - 10)
                    in
                    (stripped, h.Bp_obs.Metrics.h_sum)
                  | _ -> (best, best_sum))
                ("-", 0.)
                (List.filter
                   (fun n ->
                     String.length n > 17
                     && String.sub n 0 7 = "kernel."
                     && Filename.check_suffix n ".service_s")
                   (Bp_obs.Metrics.names m))
              |> fst
            in
            {
              u_label = e.Bp_apps.Suite.label;
              u_mapping =
                (match policy with Plan.Greedy -> "GM" | Plan.One_to_one -> "1:1");
              u_pes = pes;
              u_avg = Stats.mean utils;
              u_min = (match utils with [] -> 0. | l -> List.fold_left Float.min infinity l);
              u_max = (match utils with [] -> 0. | l -> Stats.maximum l);
              u_busiest = busiest;
            })
          [ Plan.One_to_one; Plan.Greedy ])
      Bp_apps.Suite.entries
  in
  let table =
    Table.create
      ~title:
        "PE utilization (from the metrics layer): avg/min/max per mapping"
      [ "bench"; "map"; "PEs"; "avg"; "min"; "max"; "busiest kernel" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.u_label;
          r.u_mapping;
          string_of_int r.u_pes;
          Stats.pct r.u_avg;
          Stats.pct r.u_min;
          Stats.pct r.u_max;
          r.u_busiest;
        ])
    rows;
  Format.fprintf ppf "%s@." (Table.render table);
  rows

(* ---- Placement ablation ----------------------------------------------- *)

type placement_result = {
  random_cost : float;
  annealed_cost : float;
  improvement : float;
}

let placement_ablation ppf =
  let inst = example () in
  let machine = Machine.default in
  let compiled = Pipeline.compile ~machine inst.App.graph in
  let mapping = Plan.mapping compiled ~policy:Plan.One_to_one in
  let an = compiled.Pipeline.analysis in
  let random = Bp_placement.Placement.random_placement ~seed:5 an mapping in
  let annealed = Plan.placement compiled ~policy:Plan.One_to_one in
  let out =
    {
      random_cost = random.Bp_placement.Placement.cost;
      annealed_cost = annealed.Bp_placement.Placement.cost;
      improvement =
        (if annealed.Bp_placement.Placement.cost > 0. then
           random.Bp_placement.Placement.cost
           /. annealed.Bp_placement.Placement.cost
         else infinity);
    }
  in
  let table =
    Table.create
      ~title:"Placement: simulated annealing vs random (word-hops/frame)"
      [ "placement"; "cost" ]
  in
  Table.add_row table [ "random"; Printf.sprintf "%.0f" out.random_cost ];
  Table.add_row table [ "annealed"; Printf.sprintf "%.0f" out.annealed_cost ];
  Table.add_row table
    [ "improvement"; Printf.sprintf "%.2fx" out.improvement ];
  Format.fprintf ppf "%s@." (Table.render table);
  out

type energy_row = {
  e_mapping : string;
  e_pes : int;
  e_total_uj : float;
  e_static_uj : float;
}

let energy_ablation ppf =
  let inst = example () in
  let machine = Machine.default in
  let compiled = Pipeline.compile ~machine inst.App.graph in
  let rows =
    List.map
      (fun policy ->
        let result = Plan.run_plan ~policy compiled () in
        let e = Bp_sim.Energy.of_result ~machine result in
        {
          e_mapping = Plan.policy_name policy;
          e_pes = e.Bp_sim.Energy.pes;
          e_total_uj = e.Bp_sim.Energy.total_uj;
          e_static_uj = e.Bp_sim.Energy.static_uj;
        })
      [ Plan.One_to_one; Plan.Greedy ]
  in
  let table =
    Table.create ~title:"Energy (extension): multiplexing saves static power"
      [ "mapping"; "PEs"; "static uJ"; "total uJ" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.e_mapping;
          string_of_int r.e_pes;
          Printf.sprintf "%.1f" r.e_static_uj;
          Printf.sprintf "%.1f" r.e_total_uj;
        ])
    rows;
  Format.fprintf ppf "%s@." (Table.render table);
  rows

type machine_row = {
  m_name : string;
  m_compute_kernels : int;
  m_pes_1to1 : int;
  m_met : bool;
}

let machine_ablation ppf =
  let rows =
    List.map
      (fun (m_name, machine) ->
        let inst = example ~rate:(Rate.hz 40.) () in
        let compiled = Pipeline.compile ~machine inst.App.graph in
        let g = compiled.Pipeline.graph in
        let computes =
          List.length
            (List.filter
               (fun (n : Graph.node) -> n.Graph.spec.Spec.role = Spec.Compute)
               (Graph.nodes g))
        in
        let result = Plan.run_plan ~policy:Plan.One_to_one compiled () in
        let verdict =
          Sim.real_time_verdict result ~expected_frames:inst.App.n_frames
            ~period_s:(App.period_s inst) ()
        in
        {
          m_name;
          m_compute_kernels = computes;
          m_pes_1to1 = Array.length result.Sim.procs;
          m_met = verdict.Sim.met;
        })
      [ ("default (1 MHz)", Machine.default); ("fast-pe (4 MHz)", Machine.fast_pe) ]
  in
  let table =
    Table.create
      ~title:"Machines (extension): faster PEs need fewer kernels"
      [ "machine"; "compute kernels"; "PEs (1:1)"; "meets rate" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.m_name;
          string_of_int r.m_compute_kernels;
          string_of_int r.m_pes_1to1;
          (if r.m_met then "yes" else "no");
        ])
    rows;
  Format.fprintf ppf "%s@." (Table.render table);
  rows

let export_dots ~dir ppf =
  let write name graph_builder =
    let path = Filename.concat dir name in
    Bp_viz.Dot.write_file ~path (graph_builder ());
    Format.fprintf ppf "wrote %s@." path;
    path
  in
  let raw () =
    Bp_viz.Dot.to_dot ~title:"figure 1(b): raw application"
      (example ()).App.graph
  in
  let buffered () =
    let g = (example ()).App.graph in
    ignore (Bp_transform.Align.run g);
    ignore (Bp_transform.Buffering.run g);
    Bp_viz.Dot.to_dot ~title:"figure 3: buffered and trimmed" g
  in
  let parallel ~clusters title () =
    let inst = example ~frame:(Size.v 48 36) ~rate:(Rate.hz 40.) () in
    let compiled = Pipeline.compile ~machine:Machine.small_memory inst.App.graph in
    let groups = if clusters then compiled.Pipeline.greedy_groups else [] in
    Bp_viz.Dot.to_dot ~title ~groups compiled.Pipeline.graph
  in
  let p1 = write "fig1b.dot" raw in
  let p2 = write "fig3.dot" buffered in
  let p3 = write "fig4.dot" (parallel ~clusters:false "figure 4: parallelized") in
  let p4 =
    write "fig12.dot"
      (parallel ~clusters:true "figure 12: greedy kernel-to-PE mapping")
  in
  [ p1; p2; p3; p4 ]

let all ppf =
  ignore (fig2 ppf);
  ignore (fig3 ppf);
  ignore (fig4 ppf);
  ignore (fig5 ppf);
  ignore (fig8 ppf);
  ignore (fig9 ppf);
  ignore (fig10 ppf);
  ignore (fig11 ppf);
  ignore (fig12 ppf);
  ignore (fig13 ppf);
  ignore (utilization_table ppf);
  ignore (placement_ablation ppf);
  ignore (energy_ablation ppf);
  ignore (machine_ablation ppf)
