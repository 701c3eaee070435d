(* Security camera: per-frame change statistics.

   The kind of workload the paper's introduction motivates: a camera
   stream is denoised with a median filter and compared against a blurred
   background estimate; a histogram of the absolute difference summarizes
   per-frame activity, reduced serially once per frame through a
   dependency-capped merge — the full Figure 1(b) pattern on a different
   application.

   Run with: dune exec examples/security_camera.exe *)

open Block_parallel

let bins = 12
let lo = 0.
let hi = 6.

let () =
  let frame = Size.v 28 20 in
  let rate = Rate.hz 18. in
  let n_frames = 4 in
  let frames = Image.Gen.frame_sequence ~seed:99 frame n_frames in

  let g = Graph.create () in
  let camera =
    Graph.add g ~name:"Camera"
      ~meta:(Graph.Source_meta { frame; rate })
      (Source.spec ~frame ~frames ())
  in
  let denoise = Graph.add g ~name:"Denoise" (Median.spec ~w:3 ~h:3 ()) in
  let background = Graph.add g ~name:"Background" (Conv.spec ~w:5 ~h:5 ()) in
  let blur_coeff = Image.Gen.constant (Size.v 5 5) (1. /. 25.) in
  let coeff =
    Graph.add g (Source.const ~class_name:"Background Coeff" ~chunk:blur_coeff ())
  in
  let change = Graph.add g ~name:"Change" (Arith.absdiff ()) in
  let activity = Graph.add g ~name:"Activity" (Histogram.spec ~bins ()) in
  let bin_bounds = Histogram.bin_lower_bounds ~bins ~lo ~hi in
  let bounds =
    Graph.add g (Source.const ~class_name:"Activity Bins" ~chunk:bin_bounds ())
  in
  let merge = Graph.add g (Histogram.merge ~bins ()) in
  let results = Sink.collector () in
  let alarm =
    Graph.add g ~name:"Alarm Feed"
      (Sink.spec ~window:(Window.block bins 1) results ())
  in
  Graph.connect g ~from:(camera, "out") ~into:(denoise, "in");
  Graph.connect g ~from:(camera, "out") ~into:(background, "in");
  Graph.connect g ~from:(coeff, "out") ~into:(background, "coeff");
  Graph.connect g ~from:(denoise, "out") ~into:(change, "in0");
  Graph.connect g ~from:(background, "out") ~into:(change, "in1");
  Graph.connect g ~from:(change, "out") ~into:(activity, "in");
  Graph.connect g ~from:(bounds, "out") ~into:(activity, "bins");
  Graph.connect g ~from:(activity, "out") ~into:(merge, "in");
  Graph.connect g ~from:(merge, "out") ~into:(alarm, "in");
  (* The merge reduction runs once per camera frame. *)
  Graph.add_dep g ~src:camera ~dst:merge;

  let compiled = Pipeline.compile ~machine:Machine.default g in
  Format.printf "%a@." Pipeline.pp_summary compiled;
  let result = Sim.run_plan ~policy:Plan.Greedy compiled () in
  Format.printf "%a@." Sim.pp_result result;

  (* Reference: the same computation on whole frames. *)
  let expected =
    List.map
      (fun f ->
        let med = Image_ops.median f ~w:3 ~h:3 in
        let bg = Image_ops.convolve f ~kernel:blur_coeff in
        let med =
          Image_ops.trim med ~left:1 ~right:1 ~top:1 ~bottom:1
        in
        let diff = Image.map2 (fun a b -> Float.abs (a -. b)) med bg in
        Histogram.reference diff ~bins ~lo ~hi)
      frames
  in
  List.iteri
    (fun i (hist : Image.t) ->
      let golden = List.nth expected i in
      Format.printf "frame %d activity histogram (|diff| vs golden = %g):@."
        i
        (Image.max_abs_diff golden hist);
      for b = 0 to bins - 1 do
        Format.printf "  bin %2d: %3.0f@." b (Image.get hist ~x:b ~y:0)
      done)
    (Sink.chunks results)
