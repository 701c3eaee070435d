(* Tests for the extension modules: static schedulability, energy
   accounting, and execution traces. *)

open Block_parallel
open Harness

let compiled_example ?(rate = Rate.hz 30.) () =
  let inst =
    Apps.Image_pipeline.v ~frame:(Size.v 24 18) ~rate ~n_frames:2 ()
  in
  (inst, Pipeline.compile ~machine:Machine.default inst.App.graph)

(* ---- schedulability ----------------------------------------------------- *)

let test_schedulable_after_compile () =
  let _, compiled = compiled_example () in
  let r = Schedulability.check compiled.Pipeline.machine compiled.Pipeline.graph in
  Alcotest.(check bool) "elaborated graph schedulable" true r.Schedulability.schedulable;
  Alcotest.(check bool) "has a bottleneck" true
    (r.Schedulability.bottleneck <> None);
  Alcotest.(check int) "PE prediction matches mapping"
    (Mapping.processors (Plan.mapping compiled ~policy:Plan.One_to_one))
    r.Schedulability.predicted_pe_count;
  (* Sorted by utilization, descending. *)
  let utils =
    List.map (fun (n : Schedulability.node_report) -> n.Schedulability.utilization)
      r.Schedulability.nodes
  in
  Alcotest.(check bool) "sorted" true
    (List.sort (fun a b -> Float.compare b a) utils = utils)

let test_raw_graph_flags_overload () =
  (* Before parallelization, a fast rate overloads the median — the static
     check must say so, and the compiled graph must fix it. *)
  let inst =
    Apps.Image_pipeline.v ~frame:(Size.v 24 18) ~rate:(Rate.hz 40.)
      ~n_frames:1 ()
  in
  let raw = Schedulability.check Machine.default inst.App.graph in
  Alcotest.(check bool) "raw graph not schedulable" false
    raw.Schedulability.schedulable;
  let compiled = Pipeline.compile ~machine:Machine.default inst.App.graph in
  let post =
    Schedulability.check compiled.Pipeline.machine compiled.Pipeline.graph
  in
  Alcotest.(check bool) "compiled graph schedulable" true
    post.Schedulability.schedulable

let test_prediction_matches_simulation () =
  (* The static prediction and the dynamic verdict must agree on both a
     feasible and an infeasible program. *)
  let check_agreement rate =
    let inst =
      Apps.Histogram_app.v ~frame:(Size.v 24 18) ~rate ~n_frames:2 ()
    in
    let compiled = Pipeline.compile ~machine:Machine.default inst.App.graph in
    let static =
      Schedulability.check compiled.Pipeline.machine compiled.Pipeline.graph
    in
    let result = Sim.run_plan ~policy:Plan.One_to_one compiled () in
    let verdict =
      Sim.real_time_verdict result ~expected_frames:2
        ~period_s:(App.period_s inst) ()
    in
    Alcotest.(check bool)
      (Printf.sprintf "static %b = dynamic %b at %s"
         static.Schedulability.schedulable verdict.Sim.met
         (Rate.to_string rate))
      static.Schedulability.schedulable verdict.Sim.met
  in
  check_agreement (Rate.hz 40.)

(* ---- the inverse throughput query ----------------------------------------- *)

let test_rate_search_finds_frontier () =
  let build ~rate_hz =
    (Apps.Histogram_app.v ~frame:(Size.v 24 18) ~rate:(Rate.hz rate_hz)
       ~n_frames:1 ())
      .App.graph
  in
  let r =
    Rate_search.search ~lo_hz:5. ~hi_hz:400. ~iterations:10
      ~machine:Machine.default ~max_pes:6 build
  in
  Alcotest.(check bool) "found a rate" true (r.Rate_search.best_rate_hz > 5.);
  Alcotest.(check bool) "within budget" true (r.Rate_search.best_pes <= 6);
  (* The found rate really is feasible and ~25% beyond is not, for this
     budget: re-check both ends by compiling directly. *)
  let fits rate_hz =
    match
      Err.guard (fun () ->
          let compiled =
            Pipeline.compile ~machine:Machine.default (build ~rate_hz)
          in
          Plan.processors_needed compiled ~policy:Plan.Greedy <= 6)
    with
    | Ok ok -> ok
    | Error _ -> false
  in
  Alcotest.(check bool) "best fits" true (fits r.Rate_search.best_rate_hz);
  Alcotest.(check bool) "frontier is tight" false
    (fits (r.Rate_search.best_rate_hz *. 1.5))

let test_rate_search_infeasible () =
  let build ~rate_hz =
    (Apps.Image_pipeline.v ~frame:(Size.v 24 18) ~rate:(Rate.hz rate_hz)
       ~n_frames:1 ())
      .App.graph
  in
  (* One PE can never hold the whole pipeline. *)
  let r =
    Rate_search.search ~lo_hz:1. ~hi_hz:10. ~iterations:3
      ~machine:Machine.default ~max_pes:1 build
  in
  Alcotest.(check (float 0.)) "no feasible rate" 0. r.Rate_search.best_rate_hz

(* The graph `bpc rate-search image-pipeline` builds at each probe. *)
let image_pipeline_24x18 ~rate_hz =
  (Apps.Image_pipeline.v ~frame:(Size.v 24 18) ~rate:(Rate.hz rate_hz)
     ~n_frames:3 ())
    .App.graph

(* The search `bpc rate-search image-pipeline --greedy` runs, probe for
   probe, as recorded when every probe still ran the full ten-pass
   compile. Sizing with passes 1-8 alone must not move any of it. *)
let test_rate_search_probe_list_pinned () =
  let r =
    Rate_search.search ~machine:Machine.default ~max_pes:8 ~greedy:true
      image_pipeline_24x18
  in
  let probe = Alcotest.(triple (float 0.) int bool) in
  Alcotest.(check (list probe))
    "probe list"
    [
      (1., 4, true);
      (1000., 115, false);
      (500.5, 63, false);
      (250.75, 36, false);
      (125.875, 19, false);
      (63.4375, 13, false);
      (32.21875, 7, true);
      (47.828125, 10, false);
      (40.0234375, 9, false);
      (36.12109375, 7, true);
      (38.072265625, 8, true);
      (39.0478515625, 8, true);
      (39.53564453125, 8, true);
      (39.779541015625, 8, true);
    ]
    (List.map
       (fun (p : Rate_search.probe) ->
         (p.Rate_search.rate_hz, p.Rate_search.pes, p.Rate_search.fits))
       r.Rate_search.probes);
  Alcotest.(check (float 0.)) "best rate" 39.779541015625
    r.Rate_search.best_rate_hz;
  Alcotest.(check int) "best PEs" 8 r.Rate_search.best_pes

(* [?align_policy] reaches every probe: each probe of a padding search
   agrees with a full padding compile at its rate, and the search differs
   from the default (trimming) one. *)
let test_rate_search_align_policy () =
  let search ?align_policy () =
    Rate_search.search ?align_policy ~machine:Machine.default ~max_pes:8
      ~greedy:true image_pipeline_24x18
  in
  let pad = search ~align_policy:Align.Pad_zero () in
  List.iter
    (fun (p : Rate_search.probe) ->
      let rate_hz = p.Rate_search.rate_hz in
      let expected =
        match
          Err.guard (fun () ->
              Pipeline.compile ~align_policy:Align.Pad_zero
                ~machine:Machine.default
                (image_pipeline_24x18 ~rate_hz))
        with
        | Ok plan ->
          let pes = Plan.processors_needed plan ~policy:Plan.Greedy in
          let schedulable =
            plan.Plan.schedulability.Schedulability.schedulable
          in
          (pes, schedulable && pes <= 8)
        | Error _ -> (max_int, false)
      in
      Alcotest.(check (pair int bool))
        (Printf.sprintf "probe at %g Hz" rate_hz)
        expected
        (p.Rate_search.pes, p.Rate_search.fits))
    pad.Rate_search.probes;
  Alcotest.(check bool) "padding sizes differently from trimming" true
    (pad.Rate_search.probes <> (search ()).Rate_search.probes)

(* ---- energy -------------------------------------------------------------- *)

let test_energy_breakdown () =
  let _, compiled = compiled_example () in
  let result = Sim.run_plan ~policy:Plan.One_to_one compiled () in
  let e = Energy.of_result ~machine:compiled.Pipeline.machine result in
  Alcotest.(check bool) "compute positive" true (e.Energy.compute_uj > 0.);
  Alcotest.(check bool) "channel positive" true (e.Energy.channel_uj > 0.);
  Alcotest.(check bool) "static positive" true (e.Energy.static_uj > 0.);
  Alcotest.(check (float 1e-9)) "network zero without placement" 0.
    e.Energy.network_uj;
  Alcotest.(check (float 1e-6)) "total sums" e.Energy.total_uj
    (e.Energy.compute_uj +. e.Energy.channel_uj +. e.Energy.static_uj
   +. e.Energy.network_uj)

let test_energy_greedy_saves_static () =
  (* The same work on fewer processors burns the same active energy but
     less static energy — the quantitative version of Section V. *)
  let _, compiled = compiled_example () in
  let e_1to1 =
    Energy.of_result ~machine:compiled.Pipeline.machine
      (Sim.run_plan ~policy:Plan.One_to_one compiled ())
  in
  let e_gm =
    Energy.of_result ~machine:compiled.Pipeline.machine
      (Sim.run_plan ~policy:Plan.Greedy compiled ())
  in
  Alcotest.(check bool) "fewer PEs" true (e_gm.Energy.pes < e_1to1.Energy.pes);
  Alcotest.(check bool) "less static energy" true
    (e_gm.Energy.static_uj < e_1to1.Energy.static_uj);
  Alcotest.(check bool) "similar active energy" true
    (Float.abs (e_gm.Energy.compute_uj -. e_1to1.Energy.compute_uj)
    < 0.05 *. e_1to1.Energy.compute_uj);
  Alcotest.(check bool) "less total energy" true
    (e_gm.Energy.total_uj < e_1to1.Energy.total_uj)

let test_energy_of_placed_run () =
  let _, compiled = compiled_example () in
  let mapping = Plan.mapping compiled ~policy:Plan.One_to_one in
  let placement = Placement.place compiled.Pipeline.analysis mapping in
  let result = Sim.run_plan ~policy:Plan.One_to_one compiled () in
  let e =
    Energy.of_result ~machine:compiled.Pipeline.machine
      ~placement_cost_word_hops_per_frame:placement.Placement.cost ~frames:2
      result
  in
  Alcotest.(check bool) "network energy counted" true (e.Energy.network_uj > 0.)

(* ---- traces -------------------------------------------------------------- *)

let traced_run () =
  let inst =
    Apps.Histogram_app.v ~frame:(Size.v 8 6) ~rate:(Rate.hz 20.) ~n_frames:1 ()
  in
  let g = inst.App.graph in
  let trace, observer = Trace.recorder () in
  let result =
    Sim.run ~observer ~graph:g ~mapping:(Mapping.one_to_one g)
      ~machine:Machine.default ()
  in
  (trace, result)

let test_trace_records_firings () =
  let trace, result = traced_run () in
  let fs = Trace.firings trace in
  Alcotest.(check bool) "firings recorded" true (List.length fs > 48);
  (* Times are nondecreasing and service times positive or zero. *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      a.Trace.at_s <= b.Trace.at_s +. 1e-12 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "time-ordered" true (monotone fs);
  (* Total traced service equals the processors' busy time. *)
  let traced =
    List.fold_left (fun acc f -> acc +. f.Trace.service_s) 0. fs
  in
  let busy =
    Array.fold_left
      (fun acc (p : Sim.proc_stats) ->
        acc +. p.Sim.run_s +. p.Sim.read_s +. p.Sim.write_s)
      0. result.Sim.procs
  in
  Alcotest.(check bool) "trace covers busy time" true
    (Float.abs (traced -. busy) < 1e-9)

let test_trace_summary_and_gantt () =
  let trace, _ = traced_run () in
  (match Trace.busiest_kernel trace with
  | Some (name, s) ->
    Alcotest.(check string) "histogram dominates" "Histogram" name;
    Alcotest.(check bool) "positive time" true (s > 0.)
  | None -> Alcotest.fail "expected firings");
  let gantt = Trace.gantt ~width:40 trace in
  Alcotest.(check bool) "one row per PE" true (contains gantt "PE0");
  Alcotest.(check bool) "busy cells" true (contains gantt "#");
  let per_proc = Trace.firings_on trace ~proc:0 in
  Alcotest.(check bool) "proc filter" true
    (List.for_all (fun f -> f.Trace.proc = 0) per_proc)

let test_trace_empty () =
  let trace, _ = Trace.recorder () in
  Alcotest.(check string) "empty gantt" "(empty trace)\n" (Trace.gantt trace);
  Alcotest.(check bool) "no busiest" true (Trace.busiest_kernel trace = None)

let suite =
  [
    Alcotest.test_case "schedulability: compiled graph" `Quick
      test_schedulable_after_compile;
    Alcotest.test_case "schedulability: raw overload" `Quick
      test_raw_graph_flags_overload;
    Alcotest.test_case "schedulability: matches simulation" `Quick
      test_prediction_matches_simulation;
    Alcotest.test_case "rate search: frontier" `Slow
      test_rate_search_finds_frontier;
    Alcotest.test_case "rate search: infeasible" `Quick
      test_rate_search_infeasible;
    Alcotest.test_case "rate search: pinned probe list" `Quick
      test_rate_search_probe_list_pinned;
    Alcotest.test_case "rate search: align policy" `Quick
      test_rate_search_align_policy;
    Alcotest.test_case "energy: breakdown" `Quick test_energy_breakdown;
    Alcotest.test_case "energy: greedy saves static" `Quick
      test_energy_greedy_saves_static;
    Alcotest.test_case "energy: with placement" `Quick
      test_energy_of_placed_run;
    Alcotest.test_case "trace: records firings" `Quick
      test_trace_records_firings;
    Alcotest.test_case "trace: summary and gantt" `Quick
      test_trace_summary_and_gantt;
    Alcotest.test_case "trace: empty" `Quick test_trace_empty;
  ]

(* ---- placement-integrated simulation -------------------------------------- *)

let test_placement_affects_latency_not_throughput () =
  (* The paper's Section IV-D claim, tested rather than assumed: adding
     NoC hop delay leaves throughput intact and only moves latency. *)
  let inst =
    Apps.Image_pipeline.v ~frame:(Size.v 24 18) ~rate:(Rate.hz 30.)
      ~n_frames:3 ()
  in
  let compiled = Pipeline.compile ~machine:Machine.default inst.App.graph in
  let mapping = Plan.mapping compiled ~policy:Plan.One_to_one in
  let placed = Placement.place compiled.Pipeline.analysis mapping in
  let run placement =
    Sim.run ?placement ~graph:compiled.Pipeline.graph ~mapping
      ~machine:compiled.Pipeline.machine ()
  in
  let base = run None in
  let with_noc =
    run
      (Some
         {
           Sim.tile_of_proc = placed.Placement.tile_of;
           hop_cycles_per_word = 2.;
         })
  in
  let verdict r =
    Sim.real_time_verdict r ~expected_frames:3
      ~period_s:(App.period_s inst) ()
  in
  Alcotest.(check bool) "throughput met without NoC" true (verdict base).Sim.met;
  Alcotest.(check bool) "throughput met with NoC" true
    (verdict with_noc).Sim.met;
  let lat r =
    match Sim.first_output_latency_s r with
    | Some l -> l
    | None -> Alcotest.fail "no output"
  in
  Alcotest.(check bool) "latency does not decrease" true
    (lat with_noc >= lat base -. 1e-12);
  (* The NoC model only ever adds write cycles. *)
  Alcotest.(check bool) "placement never speeds the run" true
    (with_noc.Sim.duration_s >= base.Sim.duration_s);
  (* The hop delay shows up as extra write time. *)
  let write r =
    Array.fold_left (fun acc (p : Sim.proc_stats) -> acc +. p.Sim.write_s) 0. r.Sim.procs
  in
  Alcotest.(check bool) "hop cycles charged" true
    (write with_noc > write base);
  (* And the functional result is untouched. *)
  let _, ok = App.verify inst with_noc in
  Alcotest.(check bool) "pixels identical" true ok

let suite =
  suite
  @ [
      Alcotest.test_case "placement: latency not throughput" `Slow
        test_placement_affects_latency_not_throughput;
    ]
