(* Differential testing: random applications assembled from the kernel
   library are compiled, simulated, and compared pixel-for-pixel against a
   composed whole-frame reference computation. Every stage generator
   produces both the graph fragment and its golden transform, so any
   divergence anywhere in the compiler or runtime fails the property. *)

open Block_parallel
open Harness

type stage =
  | Blur3  (* 3x3 box convolution *)
  | Median3
  | Gain of float
  | Decimate2  (* 2x2 decimation *)
  | Diamond  (* median3 vs conv5 branches re-joined by subtraction *)
  | Edges  (* equal-depth gradient branches summed (no repair needed) *)
  | Expand  (* 2x zero-stuff upsampling, a block-producing stage *)

let stage_name = function
  | Blur3 -> "blur3"
  | Median3 -> "median3"
  | Gain k -> Printf.sprintf "gain%g" k
  | Decimate2 -> "decimate2"
  | Diamond -> "diamond"
  | Edges -> "edges"
  | Expand -> "expand"

let gx_coeffs =
  Image.of_scanline_list (Size.v 3 3) [ -1.; 0.; 1.; -2.; 0.; 2.; -1.; 0.; 1. ]

let box3 = Image.Gen.constant (Size.v 3 3) (1. /. 9.)
let box5 = Image.Gen.constant (Size.v 5 5) (1. /. 25.)

(* How much a stage shrinks the frame, to keep generated pipelines legal. *)
let min_extent_after stages (w0, h0) =
  List.fold_left
    (fun (w, h) stage ->
      match stage with
      | Blur3 | Median3 -> (w - 2, h - 2)
      | Gain _ -> (w, h)
      | Decimate2 -> (((w - 1) / 2) + 1, ((h - 1) / 2) + 1)
      | Diamond -> (w - 4, h - 4)
      | Edges -> (w - 2, h - 2)
      | Expand -> (2 * w, h))
    (w0, h0) stages

(* Append one stage to the graph under construction; [prev] is the live
   output endpoint. Returns the new endpoint and the golden transform. *)
let add_stage g idx prev stage =
  let name = Printf.sprintf "%s_%d" (stage_name stage) idx in
  match stage with
  | Blur3 ->
    let conv = Graph.add g ~name (Conv.spec ~w:3 ~h:3 ()) in
    let coeff =
      Graph.add g
        ~name:(name ^ "_coeff")
        (Source.const ~class_name:(name ^ "_coeff") ~chunk:box3 ())
    in
    Graph.connect g ~from:prev ~into:(conv, "in");
    Graph.connect g ~from:(coeff, "out") ~into:(conv, "coeff");
    ((conv, "out"), fun img -> Image_ops.convolve img ~kernel:box3)
  | Median3 ->
    let med = Graph.add g ~name (Median.spec ~w:3 ~h:3 ()) in
    Graph.connect g ~from:prev ~into:(med, "in");
    ((med, "out"), fun img -> Image_ops.median img ~w:3 ~h:3)
  | Gain k ->
    let gain = Graph.add g ~name (Arith.gain k) in
    Graph.connect g ~from:prev ~into:(gain, "in");
    ((gain, "out"), fun img -> Image_ops.gain img k)
  | Decimate2 ->
    let dec = Graph.add g ~name (Decimate.spec ~fx:2 ~fy:2 ()) in
    Graph.connect g ~from:prev ~into:(dec, "in");
    ((dec, "out"), fun img -> Image_ops.downsample img ~fx:2 ~fy:2)
  | Diamond ->
    let med = Graph.add g ~name:(name ^ "_med") (Median.spec ~w:3 ~h:3 ()) in
    let conv = Graph.add g ~name:(name ^ "_conv") (Conv.spec ~w:5 ~h:5 ()) in
    let coeff =
      Graph.add g
        ~name:(name ^ "_coeff")
        (Source.const ~class_name:(name ^ "_coeff") ~chunk:box5 ())
    in
    let sub = Graph.add g ~name:(name ^ "_sub") (Arith.subtract ()) in
    Graph.connect g ~from:prev ~into:(med, "in");
    Graph.connect g ~from:prev ~into:(conv, "in");
    Graph.connect g ~from:(coeff, "out") ~into:(conv, "coeff");
    Graph.connect g ~from:(med, "out") ~into:(sub, "in0");
    Graph.connect g ~from:(conv, "out") ~into:(sub, "in1");
    ( (sub, "out"),
      fun img ->
        (* Under the trim policy the deeper convolution branch wins; the
           median output loses one pixel per side. *)
        let med = Image_ops.median img ~w:3 ~h:3 in
        let conv = Image_ops.convolve img ~kernel:box5 in
        Image_ops.subtract
          (Image_ops.trim med ~left:1 ~right:1 ~top:1 ~bottom:1)
          conv )
  | Edges ->
    let gx = Graph.add g ~name:(name ^ "_gx") (Conv.spec ~w:3 ~h:3 ()) in
    let gy = Graph.add g ~name:(name ^ "_gy") (Conv.spec ~w:3 ~h:3 ()) in
    let cx =
      Graph.add g ~name:(name ^ "_cx")
        (Source.const ~class_name:(name ^ "_cx") ~chunk:gx_coeffs ())
    in
    let cy =
      Graph.add g ~name:(name ^ "_cy")
        (Source.const ~class_name:(name ^ "_cy") ~chunk:box3 ())
    in
    let sum = Graph.add g ~name:(name ^ "_sum") (Arith.add2 ()) in
    Graph.connect g ~from:prev ~into:(gx, "in");
    Graph.connect g ~from:prev ~into:(gy, "in");
    Graph.connect g ~from:(cx, "out") ~into:(gx, "coeff");
    Graph.connect g ~from:(cy, "out") ~into:(gy, "coeff");
    Graph.connect g ~from:(gx, "out") ~into:(sum, "in0");
    Graph.connect g ~from:(gy, "out") ~into:(sum, "in1");
    ( (sum, "out"),
      fun img ->
        Image_ops.(
          Image.map2 ( +. )
            (convolve img ~kernel:gx_coeffs)
            (convolve img ~kernel:box3)) )
  | Expand ->
    let up =
      Graph.add g ~name (Upsample.spec ~mode:Upsample.Zero_stuff ~fx:2 ~fy:1 ())
    in
    Graph.connect g ~from:prev ~into:(up, "in");
    ( (up, "out"),
      fun img -> Upsample.reference ~mode:Upsample.Zero_stuff ~fx:2 ~fy:1 img )

let run_case (w, h, seed, stages) =
  let frame = Size.v w h in
  let rate = Rate.hz 10. in
  let n_frames = 2 in
  let frames = Image.Gen.frame_sequence ~seed frame n_frames in
  let g = Graph.create () in
  let src =
    Graph.add g
      ~meta:(Graph.Source_meta { frame; rate })
      (Source.spec ~frame ~frames ())
  in
  let collector = Sink.collector () in
  let sink = Graph.add g (Sink.spec ~window:Window.pixel collector ()) in
  let endpoint, goldens =
    List.fold_left
      (fun ((prev, goldens), idx) stage ->
        let next, golden = add_stage g idx prev stage in
        ((next, golden :: goldens), idx + 1))
      (((src, "out"), []), 0)
      stages
    |> fst
  in
  Graph.connect g ~from:endpoint ~into:(sink, "in");
  let golden img =
    List.fold_left (fun acc f -> f acc) img (List.rev goldens)
  in
  let compiled = Pipeline.compile ~machine:Machine.default g in
  let result = Sim.run_plan ~policy:Plan.Greedy compiled () in
  let expected = List.map golden frames in
  let out_extent = Image.size (List.hd expected) in
  let got =
    List.map
      (fun chunks ->
        Image.of_scanline_list out_extent
          (List.map (fun c -> Image.get c ~x:0 ~y:0) chunks))
      (Sink.chunks_between_frames collector)
  in
  result.Sim.leftover_items = 0
  && List.length got = n_frames
  && List.for_all2 (fun a b -> Image.max_abs_diff a b < 1e-9) expected got

let gen_stage =
  QCheck2.Gen.(
    oneof
      [
        return Blur3;
        return Median3;
        map (fun k -> Gain k) (float_range 0.5 2.);
        return Decimate2;
        return Diamond;
        return Edges;
      ])

let gen_case =
  QCheck2.Gen.(
    bind (pair (int_range 16 28) (int_range 14 22)) @@ fun (w, h) ->
    bind (int_range 1 3) @@ fun n ->
    bind (list_size (return n) gen_stage) @@ fun stages ->
    bind (int_range 0 1000) @@ fun seed -> return (w, h, seed, stages))

let differential =
  qtest ~count:30 "random pipelines match composed references" gen_case
    (fun ((w, h, _, stages) as case) ->
      let mw, mh = min_extent_after stages (w, h) in
      QCheck2.assume (mw >= 6 && mh >= 6);
      run_case case)

let fixed_cases =
  (* A few deterministic composites worth pinning regardless of the
     random draw. *)
  [
    (20, 16, 5, [ Blur3; Median3 ]);
    (24, 18, 9, [ Diamond; Gain 2. ]);
    (22, 20, 3, [ Decimate2; Blur3 ]);
    (26, 22, 7, [ Median3; Decimate2; Gain 0.5 ]);
    (28, 22, 2, [ Blur3; Diamond ]);
    (20, 16, 6, [ Edges; Gain 0.5 ]);
    (14, 12, 8, [ Expand; Blur3 ]);
    (16, 12, 4, [ Expand; Blur3; Decimate2 ]);
  ]

let test_fixed_composites () =
  List.iter
    (fun ((_, _, _, stages) as case) ->
      Alcotest.(check bool)
        (String.concat "+" (List.map stage_name stages))
        true (run_case case))
    fixed_cases

(* ---- engine equivalence -----------------------------------------------

   The event-driven scheduler (Sim, at its default: wake elision on)
   against the preserved polling engine (Sim_reference), over the full
   benchmark suite under both mappings.
   No suite application ever blocks an emitter, so the two engines must
   agree *bit-exactly* on everything observable: durations and busy
   times are compared as exact floats, not within a tolerance. Each
   engine gets its own freshly built instance (behaviour state and sink
   collectors are per-instance). *)

let result_signature (r : Sim.result) =
  let assoc l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  ( Array.to_list
      (Array.map
         (fun (p : Sim.proc_stats) ->
           (p.Sim.run_s, p.Sim.read_s, p.Sim.write_s, p.Sim.fires))
         r.Sim.procs),
    (r.Sim.input_stalls, r.Sim.late_emissions, r.Sim.max_input_lateness_s),
    assoc r.Sim.sink_eofs,
    assoc r.Sim.sink_first_data,
    List.sort compare
      (List.map
         (fun (id, (ns : Sim.node_stats)) ->
           (id, ns.Sim.node_fires, ns.Sim.node_busy_s))
         r.Sim.node_stats),
    List.sort compare r.Sim.channel_depths,
    (r.Sim.leftover_items, r.Sim.timed_out) )

let run_engine label ~policy ~engine =
  let e = Apps.Suite.by_label label in
  let inst = e.Apps.Suite.build () in
  let compiled =
    Pipeline.compile ~machine:e.Apps.Suite.machine inst.App.graph
  in
  engine ~graph:compiled.Pipeline.graph
    ~mapping:(Plan.mapping compiled ~policy)
    ~machine:e.Apps.Suite.machine ()

let test_engines_agree () =
  List.iter
    (fun label ->
      List.iter
        (fun policy ->
          let tag =
            Printf.sprintf "%s/%s" label (Plan.policy_name policy)
          in
          let reference =
            run_engine label ~policy ~engine:(fun ~graph ~mapping ~machine () ->
                Sim_reference.run ~graph ~mapping ~machine ())
          in
          let fresh =
            run_engine label ~policy ~engine:(fun ~graph ~mapping ~machine () ->
                Sim.run ~graph ~mapping ~machine ())
          in
          Alcotest.(check (float 0.))
            (tag ^ ": duration bit-exact")
            reference.Sim.duration_s fresh.Sim.duration_s;
          Alcotest.(check int)
            (tag ^ ": events processed")
            reference.Sim.events_processed fresh.Sim.events_processed;
          Alcotest.(check bool)
            (tag ^ ": full result signature")
            true
            (result_signature reference = result_signature fresh))
        [ Plan.One_to_one; Plan.Greedy ])
    Apps.Suite.labels

let suite =
  [
    Alcotest.test_case "fixed composites" `Slow test_fixed_composites;
    differential;
    Alcotest.test_case "engines agree over the whole suite" `Slow
      test_engines_agree;
  ]
