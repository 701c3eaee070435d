(* End-to-end integration: every benchmark application compiled and
   simulated under both mappings, with exact functional verification and
   real-time checks; plus policy variants and whole-suite invariants. *)

open Block_parallel
open Harness

let small = Size.v 24 18

let test_suite_benchmark label () =
  let e = Apps.Suite.by_label label in
  ignore
    (check_app ~machine:e.Apps.Suite.machine (e.Apps.Suite.build ()))

let test_image_pipeline_pad_policy () =
  let inst =
    Apps.Image_pipeline.v ~policy:Align.Pad_zero ~frame:small
      ~rate:(Rate.hz 25.) ~n_frames:2 ()
  in
  let compiled =
    Pipeline.compile ~align_policy:Align.Pad_zero ~machine:Machine.default
      inst.App.graph
  in
  let result = Sim.run_plan ~policy:Plan.One_to_one compiled () in
  let diffs, ok = App.verify inst result in
  List.iter
    (fun (l, d) ->
      Alcotest.(check (float 1e-9)) (Printf.sprintf "pad golden %s" l) 0. d)
    diffs;
  Alcotest.(check bool) "pad policy verified" true ok

let test_trim_vs_pad_differ () =
  (* The two repair policies produce different histograms on the same
     input — which is why the paper leaves the choice to the programmer. *)
  let run policy =
    let inst =
      Apps.Image_pipeline.v ~policy ~frame:small ~rate:(Rate.hz 25.)
        ~n_frames:1 ()
    in
    let compiled =
      Pipeline.compile ~align_policy:policy ~machine:Machine.default
        inst.App.graph
    in
    ignore (Sim.run_plan ~policy:Plan.One_to_one compiled ());
    match inst.App.collectors with
    | [ (_, c) ] -> List.hd (Sink.chunks c)
    | _ -> Alcotest.fail "expected one collector"
  in
  let trim = run Align.Trim and pad = run Align.Pad_zero in
  Alcotest.(check bool) "policies differ" true
    (Image.max_abs_diff trim pad > 0.)

let test_feedback_app_end_to_end () =
  let inst =
    Apps.Feedback_app.v ~frame:(Size.v 10 8) ~rate:(Rate.hz 20.) ~n_frames:3 ()
  in
  ignore (check_app ~policies:[ Plan.One_to_one ] inst)

let test_downsample_app_end_to_end () =
  let inst =
    Apps.Downsample_app.v ~frame:(Size.v 17 13) ~rate:(Rate.hz 20.)
      ~n_frames:2 ()
  in
  ignore (check_app inst)

let test_reuse_variants_shape () =
  (* Figure 9's shape: (a) meets rate, (b) misses it, (c) meets it, with
     bit-identical pixels in all three. *)
  let rows = Bp_report.Report.fig9 (Format.make_formatter (fun _ _ _ -> ()) ignore) in
  (match rows with
  | [ a; b; c ] ->
    Alcotest.(check bool) "round robin meets" true a.Bp_report.Report.met;
    Alcotest.(check bool) "blocked misses" false b.Bp_report.Report.met;
    Alcotest.(check bool) "blocked stalls" true (b.Bp_report.Report.stalls > 0);
    Alcotest.(check bool) "buffered meets" true c.Bp_report.Report.met;
    Alcotest.(check bool) "all exact" true
      (a.Bp_report.Report.exact && b.Bp_report.Report.exact
      && c.Bp_report.Report.exact)
  | _ -> Alcotest.fail "expected three variants")

let test_fig10_exact () =
  let r = Bp_report.Report.fig10 (Format.make_formatter (fun _ _ _ -> ()) ignore) in
  Alcotest.(check bool) "striped buffer exact" true r.Bp_report.Report.exact;
  Alcotest.(check bool) "several stripes" true
    (Array.length r.Bp_report.Report.ranges >= 2);
  Alcotest.(check bool) "overlap replicated" true
    (List.length r.Bp_report.Report.overlap_columns > 0)

let test_fig11_shape () =
  let rows = Bp_report.Report.fig11 (Format.make_formatter (fun _ _ _ -> ()) ignore) in
  let find c =
    List.find (fun (r : Bp_report.Report.fig11_row) -> r.Bp_report.Report.config = c) rows
  in
  let ss = find "Small/Slow" and sf = find "Small/Fast" in
  let bs = find "Big/Slow" and bf = find "Big/Fast" in
  List.iter
    (fun (r : Bp_report.Report.fig11_row) ->
      Alcotest.(check bool) (r.Bp_report.Report.config ^ " meets rate") true
        r.Bp_report.Report.met)
    rows;
  Alcotest.(check bool) "bigger input, more buffers" true
    (bs.Bp_report.Report.buffers > ss.Bp_report.Report.buffers);
  Alcotest.(check bool) "faster rate, more compute" true
    (sf.Bp_report.Report.compute_replicas > ss.Bp_report.Report.compute_replicas);
  Alcotest.(check bool) "big/fast is the largest" true
    (bf.Bp_report.Report.pes_1to1 >= sf.Bp_report.Report.pes_1to1
    && bf.Bp_report.Report.pes_1to1 >= bs.Bp_report.Report.pes_1to1)

let test_fig12_improvement () =
  let r = Bp_report.Report.fig12 (Format.make_formatter (fun _ _ _ -> ()) ignore) in
  Alcotest.(check bool) "greedy uses fewer PEs" true
    (r.Bp_report.Report.pes_greedy < r.Bp_report.Report.pes_1to1);
  let ratio = r.Bp_report.Report.util_greedy /. r.Bp_report.Report.util_1to1 in
  Alcotest.(check bool)
    (Printf.sprintf "improvement %.2f in the paper's ballpark" ratio)
    true
    (ratio > 1.2 && ratio < 2.5)

let test_fig13_shape () =
  let r = Bp_report.Report.fig13 (Format.make_formatter (fun _ _ _ -> ()) ignore) in
  List.iter
    (fun (row : Bp_report.Report.fig13_row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s real-time" row.Bp_report.Report.label
           row.Bp_report.Report.mapping)
        true row.Bp_report.Report.rt_met;
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s functional" row.Bp_report.Report.label
           row.Bp_report.Report.mapping)
        true row.Bp_report.Report.functional)
    r.Bp_report.Report.rows;
  (* GM never loses to 1:1 and the average improvement is near 1.5x. *)
  List.iter
    (fun label ->
      let find m =
        List.find
          (fun (row : Bp_report.Report.fig13_row) ->
            row.Bp_report.Report.label = label
            && row.Bp_report.Report.mapping = m)
          r.Bp_report.Report.rows
      in
      Alcotest.(check bool) (label ^ ": GM at least 1:1") true
        ((find "GM").Bp_report.Report.total
        >= (find "1:1").Bp_report.Report.total -. 1e-9))
    Apps.Suite.labels;
  Alcotest.(check bool)
    (Printf.sprintf "average improvement %.2f in range"
       r.Bp_report.Report.average_improvement)
    true
    (r.Bp_report.Report.average_improvement > 1.2
    && r.Bp_report.Report.average_improvement < 2.0)

let test_fig5_reuse_numbers () =
  let rows = Bp_report.Report.fig5 (Format.make_formatter (fun _ _ _ -> ()) ignore) in
  let conv = List.assoc "5x5 conv, step 1" rows in
  Alcotest.(check int) "24 reused" 24 conv.Reuse.reused_per_fire;
  Alcotest.(check (float 1e-9)) "96%" 0.96 conv.Reuse.reuse_fraction

let test_fig8_insets () =
  let r = Bp_report.Report.fig8 (Format.make_formatter (fun _ _ _ -> ()) ignore) in
  Alcotest.check inset "median 1,1" (Inset.uniform 1.)
    r.Bp_report.Report.median_inset;
  Alcotest.check inset "conv 2,2" (Inset.uniform 2.)
    r.Bp_report.Report.conv_inset;
  Alcotest.(check (list (list int))) "trim by one"
    [ [ 1; 1; 1; 1 ] ]
    (List.map
       (fun (l, rr, t, b) -> [ l; rr; t; b ])
       r.Bp_report.Report.trim_margins)

let test_dot_export () =
  let inst =
    Apps.Image_pipeline.v ~frame:small ~rate:(Rate.hz 30.) ~n_frames:1 ()
  in
  let compiled = Pipeline.compile ~machine:Machine.default inst.App.graph in
  let dot =
    Dot.to_dot ~title:"test"
      ~groups:(Multiplex.greedy compiled.Pipeline.machine compiled.Pipeline.graph)
      compiled.Pipeline.graph
  in
  Alcotest.(check bool) "digraph" true (contains dot "digraph");
  Alcotest.(check bool) "buffers as parallelograms" true
    (contains dot "parallelogram");
  Alcotest.(check bool) "clusters for PEs" true (contains dot "cluster_0");
  Alcotest.(check bool) "dashed replicated edges" true
    (contains dot "style=dashed");
  Alcotest.(check bool) "dependency edge" true (contains dot "style=dotted")

let test_pipeline_reports () =
  let inst =
    Apps.Image_pipeline.v ~frame:small ~rate:(Rate.hz 30.) ~n_frames:1 ()
  in
  let compiled = Pipeline.compile ~machine:Machine.default inst.App.graph in
  let s = Format.asprintf "%a" Pipeline.pp_summary compiled in
  Alcotest.(check bool) "mentions PEs" true (contains s "PEs");
  Alcotest.(check bool) "processors sane" true
    (Plan.processors_needed compiled ~policy:Plan.Greedy
    <= Plan.processors_needed compiled ~policy:Plan.One_to_one)

let suite =
  List.map
    (fun label ->
      Alcotest.test_case
        (Printf.sprintf "benchmark %s end-to-end" label)
        `Slow (test_suite_benchmark label))
    Apps.Suite.labels
  @ [
      Alcotest.test_case "image pipeline: pad policy" `Slow
        test_image_pipeline_pad_policy;
      Alcotest.test_case "trim vs pad differ" `Slow test_trim_vs_pad_differ;
      Alcotest.test_case "feedback app end-to-end" `Slow
        test_feedback_app_end_to_end;
      Alcotest.test_case "downsample app end-to-end" `Slow
        test_downsample_app_end_to_end;
      Alcotest.test_case "figure 9 shape" `Slow test_reuse_variants_shape;
      Alcotest.test_case "figure 10 exact" `Slow test_fig10_exact;
      Alcotest.test_case "figure 11 shape" `Slow test_fig11_shape;
      Alcotest.test_case "figure 12 improvement" `Slow test_fig12_improvement;
      Alcotest.test_case "figure 13 shape" `Slow test_fig13_shape;
      Alcotest.test_case "figure 5 numbers" `Quick test_fig5_reuse_numbers;
      Alcotest.test_case "figure 8 insets" `Quick test_fig8_insets;
      Alcotest.test_case "dot export" `Quick test_dot_export;
      Alcotest.test_case "pipeline reports" `Quick test_pipeline_reports;
    ]

let test_motion_app () =
  let inst =
    Apps.Motion_app.v ~frame:(Size.v 14 10) ~rate:(Rate.hz 15.) ~n_frames:3 ()
  in
  ignore (check_app ~policies:[ Plan.One_to_one; Plan.Greedy ] inst)

let test_edge_app () =
  let inst =
    Apps.Edge_app.v ~frame:(Size.v 20 16) ~rate:(Rate.hz 20.) ~n_frames:2 ()
  in
  ignore (check_app inst)

let suite =
  suite
  @ [
      Alcotest.test_case "motion detection app" `Slow test_motion_app;
      Alcotest.test_case "edge detection app" `Slow test_edge_app;
    ]

let test_export_dots () =
  let dir = Filename.temp_file "bp" "dots" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let null = Format.make_formatter (fun _ _ _ -> ()) ignore in
  let paths = Bp_report.Report.export_dots ~dir null in
  Alcotest.(check int) "four renderings" 4 (List.length paths);
  List.iter
    (fun p ->
      let ic = open_in p in
      let line = input_line ic in
      close_in ic;
      Alcotest.(check bool) (p ^ " is dot") true (contains line "digraph"))
    paths

let suite =
  suite @ [ Alcotest.test_case "figure dot export" `Slow test_export_dots ]

let test_resample_app () =
  let inst =
    Apps.Resample_app.v ~frame:(Size.v 48 1) ~rate:(Rate.hz 30.) ~n_frames:3 ()
  in
  ignore (check_app inst)

let suite =
  suite @ [ Alcotest.test_case "rational resampler app" `Slow test_resample_app ]
