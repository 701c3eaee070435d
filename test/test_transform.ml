(* Tests for the compiler transforms: buffering, alignment (both policies),
   parallelization (degrees, dependency caps, buffer striping, errors), and
   greedy multiplexing. *)

open Block_parallel
open Harness

let pipeline_inst ?(frame = Size.v 24 18) ?(rate = Rate.hz 30.) () =
  Apps.Image_pipeline.v ~frame ~rate ~n_frames:1 ()

(* ---- buffering ---------------------------------------------------------- *)

let test_buffering_inserts_two () =
  let inst = pipeline_inst () in
  let g = inst.App.graph in
  ignore (Align.run g);
  let inserted = Buffering.run g in
  Alcotest.(check int) "median + conv buffers" 2 (List.length inserted);
  (* Storage follows the double-buffer rule on the 24-wide frame. *)
  let storages =
    List.sort compare
      (List.map (fun (b : Buffering.inserted) -> b.Buffering.storage) inserted)
  in
  Alcotest.(check (list size)) "sized per rule"
    [ Size.v 24 6; Size.v 24 10 ]
    storages;
  (* Idempotent: nothing left to buffer. *)
  Alcotest.(check int) "second pass empty" 0 (List.length (Buffering.run g))

let test_buffering_rejects_overlapped_producer () =
  (* A producer that emits 3x3 sliding windows feeding a consumer that
     needs a different shape cannot be re-buffered. *)
  let g = Graph.create () in
  let frame = Size.v 8 8 in
  let src =
    Graph.add g
      ~meta:(Graph.Source_meta { frame; rate = Rate.hz 5. })
      (Source.spec ~frame ~frames:[] ())
  in
  let cfg = Buffer.config ~out_window:(Window.windowed 3 3) ~frame () in
  let buf = Graph.add g (Buffer.spec cfg) in
  let med5 = Graph.add g (Median.spec ~w:5 ~h:5 ()) in
  let c = Sink.collector () in
  let sink = Graph.add g (Sink.spec ~window:Window.pixel c ()) in
  Graph.connect g ~from:(src, "out") ~into:(buf, "in");
  Graph.connect g ~from:(buf, "out") ~into:(med5, "in");
  Graph.connect g ~from:(med5, "out") ~into:(sink, "in");
  expect_error (Err.Unsupported "") (fun () -> ignore (Buffering.run g))

(* ---- alignment ---------------------------------------------------------- *)

let test_align_trim () =
  let inst = pipeline_inst () in
  let g = inst.App.graph in
  let repairs = Align.run ~policy:Align.Trim g in
  (match repairs with
  | [ r ] ->
    Alcotest.(check string) "on the median input" "in0" r.Align.on_port;
    Alcotest.(check (list int)) "margins 1,1,1,1" [ 1; 1; 1; 1 ]
      (let l, rr, t, b = r.Align.margins in
       [ l; rr; t; b ]);
    let n = Graph.node g r.Align.inserted in
    Alcotest.(check bool) "inset role" true
      (n.Graph.spec.Kernel.role = Kernel.Inset)
  | l -> Alcotest.failf "expected one repair, got %d" (List.length l));
  (* Converged: a fresh analysis sees no misalignment. *)
  Alcotest.(check int) "aligned" 0
    (List.length (Dataflow.misalignments (Dataflow.analyze g)))

let test_align_pad () =
  let inst = Apps.Image_pipeline.v ~policy:Align.Pad_zero ~frame:(Size.v 24 18)
      ~rate:(Rate.hz 30.) ~n_frames:1 ()
  in
  let g = inst.App.graph in
  let repairs = Align.run ~policy:Align.Pad_zero g in
  (match repairs with
  | [ r ] ->
    Alcotest.(check string) "on the conv input" "in1" r.Align.on_port;
    let n = Graph.node g r.Align.inserted in
    Alcotest.(check bool) "pad role" true
      (n.Graph.spec.Kernel.role = Kernel.Pad)
  | l -> Alcotest.failf "expected one repair, got %d" (List.length l));
  Alcotest.(check int) "aligned" 0
    (List.length (Dataflow.misalignments (Dataflow.analyze g)))

let test_align_noop_when_aligned () =
  let inst =
    Apps.Multi_conv.v ~frame:(Size.v 16 12) ~rate:(Rate.hz 10.) ~n_frames:1 ()
  in
  (* Both branches of multi-conv inset by 2: already aligned. *)
  Alcotest.(check int) "no repairs" 0
    (List.length (Align.run inst.App.graph))

(* ---- parallelization ---------------------------------------------------- *)

let compiled_example ?(frame = Size.v 24 18) ?(rate = Rate.hz 30.)
    ?(machine = Machine.default) () =
  let inst = Apps.Image_pipeline.v ~frame ~rate ~n_frames:1 () in
  (inst, Pipeline.compile ~machine inst.App.graph)

let test_parallelize_rates_drive_degree () =
  let _, slow = compiled_example ~rate:(Rate.hz 10.) () in
  let _, fast = compiled_example ~rate:(Rate.hz 40.) () in
  let degree_of compiled name =
    match
      List.find_opt
        (fun (d : Parallelize.decision) -> d.Parallelize.original = name)
        compiled.Pipeline.decisions
    with
    | Some d -> d.Parallelize.degree
    | None -> 1
  in
  Alcotest.(check int) "slow median serial" 1 (degree_of slow "3x3 Median");
  Alcotest.(check bool) "fast median replicated" true
    (degree_of fast "3x3 Median" > 1);
  Alcotest.(check bool) "faster rate, more replicas" true
    (degree_of fast "3x3 Median" >= degree_of slow "3x3 Median")

let test_parallelize_dependency_cap () =
  (* The merge kernel is dependency-capped to the input's single instance
     even at rates that would otherwise replicate it: it never appears in
     the decisions. *)
  let _, compiled = compiled_example ~rate:(Rate.hz 40.) () in
  Alcotest.(check bool) "merge never replicated" true
    (List.for_all
       (fun (d : Parallelize.decision) -> d.Parallelize.original <> "Merge")
       compiled.Pipeline.decisions)

let test_parallelize_inserts_plumbing () =
  let _, compiled = compiled_example ~rate:(Rate.hz 40.) () in
  let g = compiled.Pipeline.graph in
  let count role =
    List.length
      (List.filter
         (fun (n : Graph.node) -> n.Graph.spec.Kernel.role = role)
         (Graph.nodes g))
  in
  Alcotest.(check bool) "splits present" true (count Kernel.Split > 0);
  Alcotest.(check bool) "joins present" true (count Kernel.Join > 0);
  Alcotest.(check bool) "replicate for coeff" true (count Kernel.Replicate > 0);
  Graph.validate g

let test_parallelize_buffer_striping () =
  let inst =
    Apps.Parallel_buffer.v ~frame:(Size.v 96 16) ~rate:(Rate.hz 20.)
      ~n_frames:1 ()
  in
  let compiled =
    Pipeline.compile ~machine:Machine.small_memory inst.App.graph
  in
  let d =
    List.find
      (fun (d : Parallelize.decision) ->
        d.Parallelize.reason = Parallelize.Memory_bound)
      compiled.Pipeline.decisions
  in
  Alcotest.(check bool) "several stripes" true (d.Parallelize.degree >= 2);
  (* Every stripe buffer must fit the PE memory. *)
  let pe = Machine.small_memory.Machine.pe in
  List.iter
    (fun id ->
      let n = Graph.node compiled.Pipeline.graph id in
      Alcotest.(check bool) "stripe fits" true
        (Kernel.memory_words n.Graph.spec <= pe.Machine.mem_words))
    d.Parallelize.replicas

let test_parallelize_serial_overload_rejected () =
  (* A serial kernel that cannot keep up is a compile-time error. *)
  let g = Graph.create () in
  let frame = Size.v 24 18 in
  let src =
    Graph.add g
      ~meta:(Graph.Source_meta { frame; rate = Rate.hz 100. })
      (Source.spec ~frame ~frames:[] ())
  in
  let methods =
    [
      Method_spec.on_data ~cycles:5000 ~name:"m" ~inputs:[ "in" ]
        ~outputs:[ "out" ] ();
    ]
  in
  let slow_serial =
    Kernel.v ~class_name:"Slow Serial" ~parallelization:Kernel.Serial
      ~inputs:[ Port.input "in" Window.pixel ]
      ~outputs:[ Port.output "out" Window.pixel ]
      ~methods
      ~make_behaviour:(fun () ->
        Behaviour.iteration_kernel ~methods
          ~run:(fun _ ~alloc:_ ~inputs ~outputs -> outputs.(0) <- inputs.(0))
          ())
      ()
  in
  let k = Graph.add g slow_serial in
  let c = Sink.collector () in
  let sink = Graph.add g (Sink.spec ~window:Window.pixel c ()) in
  Graph.connect g ~from:(src, "out") ~into:(k, "in");
  Graph.connect g ~from:(k, "out") ~into:(sink, "in");
  expect_error (Err.Not_schedulable "") (fun () ->
      ignore (Parallelize.run Machine.default g))

let test_parallelize_memory_overflow_rejected () =
  let g = Graph.create () in
  let frame = Size.v 8 8 in
  let src =
    Graph.add g
      ~meta:(Graph.Source_meta { frame; rate = Rate.hz 1. })
      (Source.spec ~frame ~frames:[] ())
  in
  let methods =
    [ Method_spec.on_data ~name:"m" ~inputs:[ "in" ] ~outputs:[ "out" ] () ]
  in
  let hog =
    Kernel.v ~class_name:"Memory Hog" ~state_words:100_000
      ~inputs:[ Port.input "in" Window.pixel ]
      ~outputs:[ Port.output "out" Window.pixel ]
      ~methods
      ~make_behaviour:(fun () ->
        Behaviour.iteration_kernel ~methods
          ~run:(fun _ ~alloc:_ ~inputs ~outputs -> outputs.(0) <- inputs.(0))
          ())
      ()
  in
  let k = Graph.add g hog in
  let c = Sink.collector () in
  let sink = Graph.add g (Sink.spec ~window:Window.pixel c ()) in
  Graph.connect g ~from:(src, "out") ~into:(k, "in");
  Graph.connect g ~from:(k, "out") ~into:(sink, "in");
  expect_error (Err.Resource_exhausted "") (fun () ->
      ignore (Parallelize.run Machine.default g))

(* Each input fails in [parallelize], and the error must come before the
   first rewrite, so the graph keeps the shape [buffering] left it in:
   - at 5 kHz the image pipeline's 5x5 buffer would need 23 stripes of a
     frame that has 20 window columns;
   - at 500 Hz downsample's step-2 buffer would split into stripes with
     gaps between them, which a column split cannot feed. *)
let test_parallelize_checks_before_rewriting () =
  List.iter
    (fun (what, (inst : App.instance), kind, message, buffered_size) ->
      let g = inst.App.graph in
      let buffered = ref 0 in
      let after_pass ~pass graph =
        if pass = "buffering" then buffered := Graph.size graph
      in
      (match
         Err.guard (fun () ->
             Pipeline.compile ~after_pass ~machine:Machine.default g)
       with
      | Ok _ -> Alcotest.failf "%s: expected parallelize to fail" what
      | Error e ->
        Alcotest.check err_kind (what ^ ": error class") kind e;
        Alcotest.(check bool)
          (what ^ ": message") true
          (contains (Err.to_string e) message));
      Alcotest.(check int) (what ^ ": buffering ran") buffered_size !buffered;
      Alcotest.(check int)
        (what ^ ": graph left as buffering made it")
        !buffered (Graph.size g))
    [
      ( "image pipeline at 5 kHz",
        pipeline_inst ~rate:(Rate.hz 5000.) (),
        Err.Invalid_parameterization "",
        "only 20 window columns for 23 stripes",
        12 );
      ( "downsample at 500 Hz",
        Apps.Downsample_app.v ~frame:(Size.v 24 18) ~rate:(Rate.hz 500.)
          ~n_frames:1 (),
        Err.Unsupported "",
        "buffer Buffer [22x2] (1x1)->(1x1): stripes 0 and 1 leave a gap",
        8 );
    ]

(* A buffer whose producer another rewrite replaces: multi-conv's second
   3x3 buffer is fed by the replicated first convolution. Its split reads
   the buffer's input stream from before the rewrites. *)
let test_parallelize_splits_buffer_below_rewrite () =
  let inst =
    Apps.Multi_conv.v ~frame:(Size.v 24 18) ~rate:(Rate.hz 500.) ~n_frames:2
      ()
  in
  let plan = Pipeline.compile ~machine:Machine.default inst.App.graph in
  Alcotest.(check bool) "the buffer below Conv A was split" true
    (List.exists
       (fun (d : Parallelize.decision) ->
         d.Parallelize.original = "Buffer [22x6] (1x1)->(3x3)")
       plan.Pipeline.decisions);
  let result = Sim.run_plan ~policy:Plan.One_to_one plan () in
  let _, ok = App.verify inst result in
  Alcotest.(check bool) "functional result exact" true ok

let test_required_cycles_positive () =
  let inst = pipeline_inst () in
  let g = inst.App.graph in
  let an = Dataflow.analyze g in
  let med = Graph.node_by_name g "3x3 Median" in
  let r = Parallelize.required_cycles_per_s an Machine.default med.Graph.id in
  Alcotest.(check bool) "positive demand" true (r > 0.);
  Alcotest.(check bool) "degree at least 1" true
    (Parallelize.degree_of an Machine.default med.Graph.id >= 1)

(* ---- multiplexing ------------------------------------------------------- *)

let test_multiplex_covers_all_nodes () =
  let _, compiled = compiled_example () in
  let g = compiled.Pipeline.graph in
  let groups = Multiplex.greedy compiled.Pipeline.machine g in
  (* Mapping.of_groups validates coverage and uniqueness. *)
  ignore (Mapping.of_groups g groups);
  Alcotest.(check bool) "uses fewer PEs" true
    (List.length groups < List.length (Multiplex.one_to_one g))

let test_multiplex_respects_budgets () =
  let _, compiled = compiled_example ~rate:(Rate.hz 40.) () in
  let machine = compiled.Pipeline.machine in
  let g = compiled.Pipeline.graph in
  let groups = Multiplex.greedy machine g in
  let cap =
    machine.Machine.target_utilization *. machine.Machine.multiplex_headroom
  in
  List.iter
    (fun (s : Multiplex.group_stats) ->
      if List.length s.Multiplex.members > 1 then begin
        Alcotest.(check bool)
          (Printf.sprintf "utilization %.2f under cap"
             s.Multiplex.predicted_utilization)
          true
          (s.Multiplex.predicted_utilization <= cap +. 1e-9);
        Alcotest.(check bool) "memory under PE" true
          (s.Multiplex.memory_words <= machine.Machine.pe.Machine.mem_words)
      end)
    (Multiplex.stats machine g groups)

let test_multiplex_protects_input_buffers () =
  let _, compiled = compiled_example () in
  let g = compiled.Pipeline.graph in
  let protected_ids =
    List.filter_map
      (fun (n : Graph.node) ->
        if Multiplex.protected_input_buffer g n.Graph.id then Some n.Graph.id
        else None)
      (Graph.nodes g)
  in
  Alcotest.(check bool) "example has input buffers" true
    (List.length protected_ids >= 2);
  let groups = Multiplex.greedy compiled.Pipeline.machine g in
  List.iter
    (fun id ->
      let group = List.find (fun ids -> List.mem id ids) groups in
      Alcotest.(check int) "input buffer alone" 1 (List.length group))
    protected_ids

let test_mapping_module () =
  let _, compiled = compiled_example () in
  let g = compiled.Pipeline.graph in
  let m = Mapping.one_to_one g in
  Alcotest.(check bool) "off-chip not mapped" true
    (List.for_all
       (fun (n : Graph.node) ->
         Mapping.is_on_chip n || Mapping.processor_of m n.Graph.id = None)
       (Graph.nodes g));
  expect_error (Err.Graph_malformed "") (fun () ->
      ignore (Mapping.of_groups g []));
  let src = List.hd (Graph.sources g) in
  expect_error (Err.Graph_malformed "") (fun () ->
      ignore (Mapping.of_groups g [ [ src.Graph.id ] ]))

let suite =
  [
    Alcotest.test_case "buffering: inserts and sizes" `Quick
      test_buffering_inserts_two;
    Alcotest.test_case "buffering: overlapped producer" `Quick
      test_buffering_rejects_overlapped_producer;
    Alcotest.test_case "align: trim policy" `Quick test_align_trim;
    Alcotest.test_case "align: pad policy" `Quick test_align_pad;
    Alcotest.test_case "align: no-op when aligned" `Quick
      test_align_noop_when_aligned;
    Alcotest.test_case "parallelize: rate drives degree" `Quick
      test_parallelize_rates_drive_degree;
    Alcotest.test_case "parallelize: dependency cap" `Quick
      test_parallelize_dependency_cap;
    Alcotest.test_case "parallelize: split/join plumbing" `Quick
      test_parallelize_inserts_plumbing;
    Alcotest.test_case "parallelize: buffer striping" `Quick
      test_parallelize_buffer_striping;
    Alcotest.test_case "parallelize: serial overload" `Quick
      test_parallelize_serial_overload_rejected;
    Alcotest.test_case "parallelize: checks before rewriting" `Quick
      test_parallelize_checks_before_rewriting;
    Alcotest.test_case "parallelize: split a buffer below a rewrite" `Quick
      test_parallelize_splits_buffer_below_rewrite;
    Alcotest.test_case "parallelize: memory overflow" `Quick
      test_parallelize_memory_overflow_rejected;
    Alcotest.test_case "parallelize: demand positive" `Quick
      test_required_cycles_positive;
    Alcotest.test_case "multiplex: coverage" `Quick
      test_multiplex_covers_all_nodes;
    Alcotest.test_case "multiplex: budgets" `Quick test_multiplex_respects_budgets;
    Alcotest.test_case "multiplex: input buffers protected" `Quick
      test_multiplex_protects_input_buffers;
    Alcotest.test_case "mapping: module" `Quick test_mapping_module;
  ]

(* ---- pipeline chains (Section IV-B, second use) ------------------------- *)

let heavy_unary ~name ~cycles f =
  let methods =
    [
      Method_spec.on_data ~cycles ~name:"run" ~inputs:[ "in" ]
        ~outputs:[ "out" ] ();
    ]
  in
  Kernel.v ~class_name:name
    ~inputs:[ Port.input "in" Window.pixel ]
    ~outputs:[ Port.output "out" Window.pixel ]
    ~methods
    ~make_behaviour:(fun () ->
      Behaviour.iteration_kernel ~methods
        ~run:(fun _ ~alloc:_ ~inputs ~outputs ->
          outputs.(0) <- Image.map f inputs.(0))
        ())
    ()

let pipeline_chain_app () =
  let frame = Size.v 24 18 in
  let rate = Rate.hz 30. in
  let frames = Image.Gen.frame_sequence ~seed:13 frame 2 in
  let g = Graph.create () in
  let src =
    Graph.add g
      ~meta:(Graph.Source_meta { frame; rate })
      (Source.spec ~frame ~frames ())
  in
  let a = Graph.add g ~name:"A" (heavy_unary ~name:"A" ~cycles:120 (fun v -> v *. 2.)) in
  let b = Graph.add g ~name:"B" (heavy_unary ~name:"B" ~cycles:100 (fun v -> v +. 1.)) in
  let c = Graph.add g ~name:"C" (heavy_unary ~name:"C" ~cycles:80 (fun v -> v *. 0.5)) in
  let collector = Sink.collector () in
  let sink = Graph.add g (Sink.spec ~window:Window.pixel collector ()) in
  Graph.connect g ~from:(src, "out") ~into:(a, "in");
  Graph.connect g ~from:(a, "out") ~into:(b, "in");
  Graph.connect g ~from:(b, "out") ~into:(c, "in");
  Graph.connect g ~from:(c, "out") ~into:(sink, "in");
  (* The dependency edges declare A -> B -> C a pipeline. *)
  Graph.add_dep g ~src:a ~dst:b;
  Graph.add_dep g ~src:b ~dst:c;
  (g, frames, frame, collector)

let test_pipeline_chain_structure () =
  let g, _, _, _ = pipeline_chain_app () in
  let decisions = Parallelize.run Machine.default g in
  let chain =
    List.find
      (fun (d : Parallelize.decision) ->
        contains d.Parallelize.original "pipeline")
      decisions
  in
  Alcotest.(check bool) "replicated" true (chain.Parallelize.degree >= 2);
  Alcotest.(check int) "stages x degree"
    (3 * chain.Parallelize.degree)
    (List.length chain.Parallelize.replicas);
  (* Point-to-point: each B instance is fed directly by an A instance, with
     no split/join in between. *)
  let b0 = Graph.node_by_name g "B_0" in
  (match Graph.in_channel g b0.Graph.id "in" with
  | Some ch ->
    Alcotest.(check string) "B_0 fed by A_0" "A_0"
      (Graph.node g ch.Graph.src.Graph.node).Graph.name
  | None -> Alcotest.fail "B_0 unconnected");
  (* Exactly one split and one join for the whole chain. *)
  let count role =
    List.length
      (List.filter
         (fun (n : Graph.node) -> n.Graph.spec.Kernel.role = role)
         (Graph.nodes g))
  in
  Alcotest.(check int) "one split" 1 (count Kernel.Split);
  Alcotest.(check int) "one join" 1 (count Kernel.Join);
  Graph.validate g

let test_pipeline_chain_end_to_end () =
  let g, frames, frame, collector = pipeline_chain_app () in
  let compiled = Pipeline.compile ~machine:Machine.default g in
  let result = Sim.run_plan ~policy:Plan.One_to_one compiled () in
  Alcotest.(check int) "clean" 0 result.Sim.leftover_items;
  let golden =
    List.map (Image.map (fun v -> ((v *. 2.) +. 1.) *. 0.5)) frames
  in
  let got =
    List.map
      (fun chunks ->
        Image.of_scanline_list frame
          (List.map (fun ch -> Image.get ch ~x:0 ~y:0) chunks))
      (Sink.chunks_between_frames collector)
  in
  List.iter2 (fun a b -> Alcotest.check image "pipeline golden" a b) golden got;
  let verdict =
    Sim.real_time_verdict result ~expected_frames:2
      ~period_s:(1. /. 30.) ()
  in
  Alcotest.(check bool) "meets rate" true verdict.Sim.met

let suite =
  suite
  @ [
      Alcotest.test_case "pipeline chain: structure" `Quick
        test_pipeline_chain_structure;
      Alcotest.test_case "pipeline chain: end-to-end" `Quick
        test_pipeline_chain_end_to_end;
    ]

let test_compile_idempotent () =
  (* Re-compiling an elaborated graph is a no-op: nothing left to repair,
     buffer, or replicate. *)
  let inst =
    Apps.Image_pipeline.v ~frame:(Size.v 24 18) ~rate:(Rate.hz 30.)
      ~n_frames:1 ()
  in
  let first = Pipeline.compile ~machine:Machine.default inst.App.graph in
  let nodes_before = Graph.size first.Pipeline.graph in
  let second = Pipeline.compile ~machine:Machine.default first.Pipeline.graph in
  Alcotest.(check int) "no new repairs" 0 (List.length second.Pipeline.repairs);
  Alcotest.(check int) "no new buffers" 0 (List.length second.Pipeline.buffers);
  Alcotest.(check int) "no new replicas" 0
    (List.length second.Pipeline.decisions);
  Alcotest.(check int) "graph unchanged" nodes_before
    (Graph.size second.Pipeline.graph)

let suite =
  suite
  @ [
      Alcotest.test_case "compile: idempotent" `Quick test_compile_idempotent;
    ]
