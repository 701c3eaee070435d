(* Additional coverage: the machine model, kernel corner cases, stream
   metadata on elaborated graphs, and determinism guarantees. *)

open Block_parallel
open Harness

(* ---- machine model ------------------------------------------------------ *)

let test_machine_constructors () =
  let m = Machine.default in
  Alcotest.(check bool) "positive freq" true (m.Machine.pe.Machine.freq_hz > 0.);
  Alcotest.(check (float 1e-12)) "cycle time" (1. /. 1e6)
    (Machine.cycle_time_s m.Machine.pe);
  Alcotest.(check (float 1e-12)) "read time"
    (10. *. 0.15 /. 1e6)
    (Machine.read_time_s m.Machine.pe ~words:10);
  Alcotest.(check bool) "usable below freq" true
    (Machine.usable_cycles_per_s m < m.Machine.pe.Machine.freq_hz);
  expect_error (Err.Invalid_parameterization "") (fun () ->
      Machine.pe_v ~freq_hz:0. ~mem_words:1 ~read_cycles_per_word:0.
        ~write_cycles_per_word:0. ());
  expect_error (Err.Invalid_parameterization "") (fun () ->
      Machine.v ~target_utilization:1.5 Machine.default.Machine.pe);
  expect_error (Err.Invalid_parameterization "") (fun () ->
      Machine.v ~max_pes:0 Machine.default.Machine.pe)

let test_machine_by_name () =
  List.iter
    (fun n -> ignore (Machine.by_name n))
    Machine.names;
  expect_error (Err.Unsupported "") (fun () -> ignore (Machine.by_name "nope"));
  Alcotest.(check bool) "small memory smaller" true
    (Machine.small_memory.Machine.pe.Machine.mem_words
    < Machine.default.Machine.pe.Machine.mem_words);
  Alcotest.(check bool) "fast pe faster" true
    (Machine.fast_pe.Machine.pe.Machine.freq_hz
    > Machine.default.Machine.pe.Machine.freq_hz)

(* ---- kernel corner cases ------------------------------------------------- *)

let test_bayer_strided_replica () =
  (* A custom replica must see exactly its share of the scan order. *)
  let frame = Size.v 6 6 in
  let mosaic = Image.Gen.ramp frame in
  let golden_r, _, _ = Image_ops.bayer_demosaic mosaic in
  let base = Bayer.spec ~frame () in
  let replicas =
    List.init 2 (fun k -> Kernel.replica_spec base ~replica:k ~ways:2)
  in
  let benches = List.map bench replicas in
  (* Round-robin the 16 valid windows across the two replicas. *)
  List.iteri
    (fun i (ox, oy) ->
      let b = List.nth benches (i mod 2) in
      b.feed "in" (Item.data (Image.sub mosaic ~x:ox ~y:oy (Size.v 3 3))))
    (List.concat_map (fun oy -> List.map (fun ox -> (ox, oy)) [ 0; 1; 2; 3 ])
       [ 0; 1; 2; 3 ]);
  List.iter (fun b -> ignore (b.run_to_idle ())) benches;
  let outs =
    List.map
      (fun b ->
        List.map (fun i -> Image.get i ~x:0 ~y:0) (data_chunks (b.out "r")))
      benches
  in
  (* Interleave back and compare to the golden red plane. *)
  let merged = Array.make 16 0. in
  List.iteri
    (fun k vals -> List.iteri (fun i v -> merged.((2 * i) + k) <- v) vals)
    outs;
  let got = Image.of_scanline_list (Size.v 4 4) (Array.to_list merged) in
  Alcotest.check image "strided replicas reassemble" golden_r got

let test_histogram_find_bin_edges () =
  let b = bench (Histogram.spec ~bins:4 ()) in
  b.feed "bins" (Item.data (Histogram.bin_lower_bounds ~bins:4 ~lo:0. ~hi:4.));
  List.iter (fun v -> b.feed "in" (px v)) [ -10.; 0.; 3.999; 42. ];
  b.feed "in" (Item.ctl (Token.eof 0));
  ignore (b.run_to_idle ());
  match data_chunks (b.out "out") with
  | [ h ] ->
    Alcotest.(check (float 0.)) "below range clamps to bin 0" 2.
      (Image.get h ~x:0 ~y:0);
    Alcotest.(check (float 0.)) "above range clamps to last" 2.
      (Image.get h ~x:3 ~y:0)
  | _ -> Alcotest.fail "expected one histogram"

let test_buffer_forwards_user_tokens () =
  let frame = Size.v 4 4 in
  let cfg = Buffer.config ~out_window:(Window.windowed 3 3) ~frame () in
  let b = bench (Buffer.spec cfg) in
  b.feed "in" (Item.ctl (Token.user "knob" 0));
  ignore (b.run_to_idle ());
  match b.out "out" with
  | [ Item.Ctl t ] ->
    Alcotest.(check bool) "user token forwarded" true
      (Token.kind_equal t.Token.kind (Token.User "knob"))
  | _ -> Alcotest.fail "expected the token"

let test_source_noeol () =
  let frame = Size.v 3 2 in
  let spec =
    Source.spec ~emit_eol:false ~frame ~frames:[ Image.Gen.ramp frame ] ()
  in
  let b = bench spec in
  ignore (b.run_to_idle ());
  let items = b.out "out" in
  Alcotest.(check int) "pixels + EOF only" 7 (List.length items);
  Alcotest.(check int) "single token" 1 (List.length (tokens_of items))

let test_replicate_fanout_in_sim () =
  (* One replicate node feeding two consumers: both receive every item. *)
  let g = Graph.create () in
  let frame = Size.v 4 3 in
  let src =
    Graph.add g
      ~meta:(Graph.Source_meta { frame; rate = Rate.hz 10. })
      (Source.spec ~frame ~frames:[ Image.Gen.ramp frame ] ())
  in
  let rep = Graph.add g (Split_join.replicate ~window:Window.pixel ()) in
  let c1 = Sink.collector () and c2 = Sink.collector () in
  let s1 = Graph.add g ~name:"a" (Sink.spec ~window:Window.pixel c1 ()) in
  let s2 = Graph.add g ~name:"b" (Sink.spec ~window:Window.pixel c2 ()) in
  Graph.connect g ~from:(src, "out") ~into:(rep, "in");
  Graph.connect g ~from:(rep, "out") ~into:(s1, "in");
  Graph.connect g ~from:(rep, "out") ~into:(s2, "in");
  let result =
    Sim.run ~graph:g ~mapping:(Mapping.one_to_one g)
      ~machine:Machine.default ()
  in
  Alcotest.(check int) "clean" 0 result.Sim.leftover_items;
  Alcotest.(check int) "copy 1" 12 (List.length (Sink.chunks c1));
  Alcotest.(check int) "copy 2" 12 (List.length (Sink.chunks c2))

let test_decimate_kernel_spec () =
  expect_error (Err.Invalid_parameterization "") (fun () ->
      Decimate.spec ~fx:0 ~fy:2 ());
  let s = Decimate.spec ~fx:2 ~fy:3 () in
  let w = (Kernel.find_input s "in").Port.window in
  Alcotest.(check bool) "step 2,3" true (Step.equal w.Window.step (Step.v 2 3))

(* ---- elaborated stream metadata ------------------------------------------ *)

let test_column_split_streams () =
  let inst =
    Apps.Parallel_buffer.v ~frame:(Size.v 96 16) ~rate:(Rate.hz 20.)
      ~n_frames:1 ()
  in
  let compiled =
    Pipeline.compile ~machine:Machine.small_memory inst.App.graph
  in
  let g = compiled.Pipeline.graph in
  let an = compiled.Pipeline.analysis in
  (* Stripe streams: the sub-buffer inputs cover their declared ranges. *)
  let split =
    List.find
      (fun (n : Graph.node) ->
        match n.Graph.meta with
        | Graph.Column_split_meta _ -> true
        | _ -> false)
      (Graph.nodes g)
  in
  let ranges =
    match split.Graph.meta with
    | Graph.Column_split_meta { ranges } -> ranges
    | _ -> assert false
  in
  List.iteri
    (fun k (c : Graph.channel) ->
      let s = Dataflow.stream_of an c.Graph.chan_id in
      let c0, c1 = ranges.(k) in
      Alcotest.(check int)
        (Printf.sprintf "stripe %d width" k)
        (c1 - c0) s.Stream.extent.Size.w)
    (Graph.out_channels g split.Graph.id ());
  (* The pattern join restores the full logical extent. *)
  let join =
    List.find
      (fun (n : Graph.node) ->
        match n.Graph.meta with
        | Graph.Pattern_join_meta _ -> true
        | _ -> false)
      (Graph.nodes g)
  in
  let out = List.hd (Graph.out_channels g join.Graph.id ()) in
  let s = Dataflow.stream_of an out.Graph.chan_id in
  Alcotest.check size "rejoined extent" (Size.v 96 16) s.Stream.extent

(* ---- determinism ---------------------------------------------------------- *)

let test_sim_deterministic () =
  let run () =
    let inst =
      Apps.Image_pipeline.v ~frame:(Size.v 24 18) ~rate:(Rate.hz 30.)
        ~n_frames:2 ()
    in
    let compiled = Pipeline.compile ~machine:Machine.default inst.App.graph in
    let result = Sim.run_plan ~policy:Plan.Greedy compiled () in
    ( result.Sim.duration_s,
      Sim.average_utilization result,
      List.map
        (fun c -> Image.to_scanline_list c)
        (Sink.chunks (List.assoc "result" inst.App.collectors)) )
  in
  let d1, u1, c1 = run () in
  let d2, u2, c2 = run () in
  Alcotest.(check (float 1e-12)) "same duration" d1 d2;
  Alcotest.(check (float 1e-12)) "same utilization" u1 u2;
  Alcotest.(check bool) "same pixels" true (c1 = c2)

let test_multiplex_deterministic () =
  let inst =
    Apps.Image_pipeline.v ~frame:(Size.v 24 18) ~rate:(Rate.hz 30.)
      ~n_frames:1 ()
  in
  let compiled = Pipeline.compile ~machine:Machine.default inst.App.graph in
  let a = Multiplex.greedy compiled.Pipeline.machine compiled.Pipeline.graph in
  let b = Multiplex.greedy compiled.Pipeline.machine compiled.Pipeline.graph in
  Alcotest.(check bool) "same grouping" true (a = b)

let suite =
  [
    Alcotest.test_case "machine: constructors" `Quick
      test_machine_constructors;
    Alcotest.test_case "machine: by_name" `Quick test_machine_by_name;
    Alcotest.test_case "bayer: strided replicas" `Quick
      test_bayer_strided_replica;
    Alcotest.test_case "histogram: clamping" `Quick
      test_histogram_find_bin_edges;
    Alcotest.test_case "buffer: user tokens" `Quick
      test_buffer_forwards_user_tokens;
    Alcotest.test_case "source: noeol" `Quick test_source_noeol;
    Alcotest.test_case "replicate: fanout" `Quick test_replicate_fanout_in_sim;
    Alcotest.test_case "decimate: spec" `Quick test_decimate_kernel_spec;
    Alcotest.test_case "streams: column split metadata" `Quick
      test_column_split_streams;
    Alcotest.test_case "determinism: simulator" `Slow test_sim_deterministic;
    Alcotest.test_case "determinism: multiplexer" `Quick
      test_multiplex_deterministic;
  ]

(* ---- upsample / add2 / latency -------------------------------------------- *)

let test_upsample_modes () =
  let img = Image.of_scanline_list (Size.v 2 1) [ 3.; 4. ] in
  let hold = Upsample.reference ~mode:Upsample.Hold ~fx:2 ~fy:2 img in
  Alcotest.(check (list (float 0.)))
    "hold" [ 3.; 3.; 4.; 4.; 3.; 3.; 4.; 4. ]
    (Image.to_scanline_list hold);
  let zs = Upsample.reference ~mode:Upsample.Zero_stuff ~fx:2 ~fy:2 img in
  Alcotest.(check (list (float 0.)))
    "zero stuff" [ 3.; 0.; 4.; 0.; 0.; 0.; 0.; 0. ]
    (Image.to_scanline_list zs)

let test_upsample_in_sim () =
  let frame = Size.v 6 4 in
  let rate = Rate.hz 10. in
  let frames = Image.Gen.frame_sequence ~seed:21 frame 2 in
  let g = Graph.create () in
  let src =
    Graph.add g
      ~meta:(Graph.Source_meta { frame; rate })
      (Source.spec ~frame ~frames ())
  in
  let up = Graph.add g (Upsample.spec ~fx:2 ~fy:2 ()) in
  let collector = Sink.collector () in
  let sink =
    Graph.add g (Sink.spec ~window:(Window.block 2 2) collector ())
  in
  Graph.connect g ~from:(src, "out") ~into:(up, "in");
  Graph.connect g ~from:(up, "out") ~into:(sink, "in");
  let result =
    Sim.run ~graph:g ~mapping:(Mapping.one_to_one g)
      ~machine:Machine.default ()
  in
  Alcotest.(check int) "clean" 0 result.Sim.leftover_items;
  (* Stitch the 2x2 blocks back into upsampled frames and compare. *)
  let stitch chunks =
    let out = Image.create (Size.v 12 8) in
    List.iteri
      (fun i block ->
        let bx = i mod 6 and by = i / 6 in
        Image.blit ~src:block ~dst:out ~x:(bx * 2) ~y:(by * 2))
      chunks;
    out
  in
  List.iter2
    (fun f chunks ->
      let golden = Upsample.reference ~mode:Upsample.Hold ~fx:2 ~fy:2 f in
      Alcotest.check image "upsampled" golden (stitch chunks))
    frames
    (Sink.chunks_between_frames collector)

let test_add2_kernel () =
  let b = bench (Arith.add2 ()) in
  b.feed "in0" (px 3.);
  b.feed "in1" (px 4.);
  ignore (b.run_to_idle ());
  match data_chunks (b.out "out") with
  | [ img ] -> Alcotest.(check (float 0.)) "sum" 7. (Image.get img ~x:0 ~y:0)
  | _ -> Alcotest.fail "expected one chunk"

let test_first_output_latency () =
  let inst =
    Apps.Image_pipeline.v ~frame:(Size.v 24 18) ~rate:(Rate.hz 30.)
      ~n_frames:2 ()
  in
  let compiled = Pipeline.compile ~machine:Machine.default inst.App.graph in
  let lat policy =
    match Sim.first_output_latency_s (Sim.run_plan ~policy compiled ()) with
    | Some l -> l
    | None -> Alcotest.fail "no output"
  in
  let l_1to1 = lat Plan.One_to_one and l_gm = lat Plan.Greedy in
  let period = 1. /. 30. in
  (* The histogram result needs the whole frame: latency sits within a
     frame period of the frame's end, under either mapping. *)
  Alcotest.(check bool) "latency at least one frame" true (l_1to1 >= period *. 0.9);
  Alcotest.(check bool) "latency bounded" true (l_1to1 < 2. *. period);
  (* Throughput-insensitive claim: mapping changes latency only mildly at
     these utilizations. *)
  Alcotest.(check bool) "mapping leaves latency similar" true
    (Float.abs (l_gm -. l_1to1) < 0.5 *. period)

let suite =
  suite
  @ [
      Alcotest.test_case "upsample: reference modes" `Quick
        test_upsample_modes;
      Alcotest.test_case "upsample: in simulation" `Quick test_upsample_in_sim;
      Alcotest.test_case "arith: add2" `Quick test_add2_kernel;
      Alcotest.test_case "latency: first output" `Quick
        test_first_output_latency;
    ]

let test_switch_overhead () =
  (* The same multiplexed program costs more busy time when context
     switches are charged; a dedicated (1:1) mapping is unaffected. *)
  let inst () =
    Apps.Histogram_app.v ~frame:(Size.v 12 9) ~rate:(Rate.hz 20.) ~n_frames:2 ()
  in
  let machine_with sw =
    Machine.v
      (Machine.pe_v ~switch_cycles:sw ~freq_hz:1e6 ~mem_words:4096
         ~read_cycles_per_word:0.15 ~write_cycles_per_word:0.15 ())
  in
  let busy machine policy =
    let i = inst () in
    let compiled = Pipeline.compile ~machine i.App.graph in
    let r = Sim.run_plan ~policy compiled () in
    Array.fold_left
      (fun acc (p : Sim.proc_stats) -> acc +. p.Sim.run_s)
      0. r.Sim.procs
  in
  let base = busy (machine_with 0.) Plan.Greedy in
  let heavy = busy (machine_with 50.) Plan.Greedy in
  Alcotest.(check bool) "switching costs time" true (heavy > base);
  (* Dedicated PEs never switch. *)
  let one_base = busy (machine_with 0.) Plan.One_to_one in
  let one_heavy = busy (machine_with 50.) Plan.One_to_one in
  Alcotest.(check (float 1e-9)) "1:1 unaffected" one_base one_heavy

let test_upsample_then_window () =
  (* Block-producing kernel feeding a windowed consumer: the buffering pass
     must insert a block-fed buffer (in_block = 2x2). *)
  let frame = Size.v 8 6 in
  let rate = Rate.hz 10. in
  let frames = Image.Gen.frame_sequence ~seed:31 frame 2 in
  let g = Graph.create () in
  let src =
    Graph.add g
      ~meta:(Graph.Source_meta { frame; rate })
      (Source.spec ~frame ~frames ())
  in
  let up = Graph.add g (Upsample.spec ~fx:2 ~fy:2 ()) in
  let blur = Graph.add g (Conv.spec ~w:3 ~h:3 ()) in
  let coeffs = Image.Gen.constant (Size.v 3 3) (1. /. 9.) in
  let c = Graph.add g (Source.const ~chunk:coeffs ()) in
  let collector = Sink.collector () in
  let sink = Graph.add g (Sink.spec ~window:Window.pixel collector ()) in
  Graph.connect g ~from:(src, "out") ~into:(up, "in");
  Graph.connect g ~from:(up, "out") ~into:(blur, "in");
  Graph.connect g ~from:(c, "out") ~into:(blur, "coeff");
  Graph.connect g ~from:(blur, "out") ~into:(sink, "in");
  let compiled = Pipeline.compile ~machine:Machine.default g in
  (* A buffer was inserted between upsample and conv, fed 2x2 blocks. *)
  let block_buffer =
    List.exists
      (fun (b : Buffering.inserted) ->
        let n = Graph.node compiled.Pipeline.graph b.Buffering.buffer_node in
        let inp = Kernel.find_input n.Graph.spec "in" in
        Size.equal inp.Port.window.Window.size (Size.v 2 2))
      compiled.Pipeline.buffers
  in
  Alcotest.(check bool) "block-fed buffer inserted" true block_buffer;
  let result = Sim.run_plan ~policy:Plan.One_to_one compiled () in
  Alcotest.(check int) "clean" 0 result.Sim.leftover_items;
  let golden =
    List.map
      (fun f ->
        Image_ops.convolve
          (Upsample.reference ~mode:Upsample.Hold ~fx:2 ~fy:2 f)
          ~kernel:coeffs)
      frames
  in
  let out_extent = Image.size (List.hd golden) in
  let got =
    List.map
      (fun chunks ->
        Image.of_scanline_list out_extent
          (List.map (fun ch -> Image.get ch ~x:0 ~y:0) chunks))
      (Sink.chunks_between_frames collector)
  in
  List.iter2
    (fun a b -> Alcotest.check image "upsample+blur golden" a b)
    golden got

let test_shipped_programs_parse () =
  (* The .bp programs shipped under examples/programs must keep compiling
     and simulating cleanly. *)
  List.iter
    (fun (path, allowed_leftover) ->
      let p = Lang.parse_file path in
      let compiled = Pipeline.compile ~machine:Machine.default p.Lang.graph in
      let result = Sim.run_plan ~policy:Plan.Greedy compiled () in
      Alcotest.(check bool)
        (Printf.sprintf "%s leftovers <= %d" path allowed_leftover)
        true
        (result.Sim.leftover_items <= allowed_leftover);
      List.iter
        (fun (name, collector) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s output %s nonempty" path name)
            true
            (Sink.chunks collector <> []))
        p.Lang.outputs)
    [
      ("../examples/programs/edge_histogram.bp", 0);
      ("../examples/programs/radio_fir.bp", 0);
      ("../examples/programs/edge_detect.bp", 0);
      (* The delay line holds the final frame plus its tokens. *)
      ("../examples/programs/motion.bp", (16 * 12) + 12 + 4);
    ]

let suite =
  suite
  @ [
      Alcotest.test_case "sim: switch overhead" `Quick test_switch_overhead;
      Alcotest.test_case "buffer: block-fed" `Quick test_upsample_then_window;
      Alcotest.test_case "lang: shipped programs" `Quick
        test_shipped_programs_parse;
    ]

let test_pp_smoke () =
  (* Formatting surfaces stay stable and total. *)
  Alcotest.(check string) "window" "(5x5)[1,1]@[2.0,2.0]"
    (Window.to_string (Conv.input_window ~w:5 ~h:5));
  Alcotest.(check string) "rate" "30Hz" (Rate.to_string (Rate.hz 30.))

let test_rate_search_top_fits () =
  (* When even the highest probe fits, the search takes it directly. *)
  let build ~rate_hz =
    let frame = Size.v 6 5 in
    let g = Graph.create () in
    let src =
      Graph.add g
        ~meta:(Graph.Source_meta { frame; rate = Rate.hz rate_hz })
        (Source.spec ~frame ~frames:[] ())
    in
    let f = Graph.add g (Arith.forward ()) in
    let c = Sink.collector () in
    let sink = Graph.add g (Sink.spec ~window:Window.pixel c ()) in
    Graph.connect g ~from:(src, "out") ~into:(f, "in");
    Graph.connect g ~from:(f, "out") ~into:(sink, "in");
    g
  in
  let r =
    Rate_search.search ~iterations:4 ~machine:Machine.default ~max_pes:4 build
  in
  Alcotest.(check (float 1e-9)) "takes the ceiling" 1000.
    r.Rate_search.best_rate_hz;
  Alcotest.(check int) "only two probes" 2
    (List.length r.Rate_search.probes)

let test_dot_pad_shape () =
  let inst =
    Apps.Image_pipeline.v ~policy:Align.Pad_zero ~frame:(Size.v 24 18)
      ~rate:(Rate.hz 20.) ~n_frames:1 ()
  in
  let compiled =
    Pipeline.compile ~align_policy:Align.Pad_zero ~machine:Machine.default
      inst.App.graph
  in
  let dot = Dot.to_dot compiled.Pipeline.graph in
  Alcotest.(check bool) "pad drawn as house" true
    (Harness.contains dot "shape=house")

let suite =
  suite
  @ [
      Alcotest.test_case "pp: smoke" `Quick test_pp_smoke;
      Alcotest.test_case "rate search: ceiling" `Quick
        test_rate_search_top_fits;
      Alcotest.test_case "dot: pad shape" `Quick test_dot_pad_shape;
    ]
