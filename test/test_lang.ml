(* Tests for the textual application description. *)

open Block_parallel
open Harness

let minimal =
  {|
# a comment line
input  cam frame=8x6 rate=10 frames=2 seed=3
kernel g   gain 2
output out

cam.out -> g.in
g.out   -> out.in
|}

let test_parse_minimal () =
  let p = Lang.parse minimal in
  Alcotest.(check int) "nodes" 3 (Graph.size p.Lang.graph);
  Alcotest.(check int) "frames" 2 p.Lang.n_frames;
  (match p.Lang.rate with
  | Some r -> Alcotest.(check (float 0.)) "rate" 10. (Rate.to_hz r)
  | None -> Alcotest.fail "expected rate");
  Alcotest.(check (list string)) "inputs" [ "cam" ] (List.map fst p.Lang.inputs);
  Alcotest.(check (list string)) "outputs" [ "out" ]
    (List.map fst p.Lang.outputs)

let test_parse_and_run () =
  let p = Lang.parse minimal in
  let compiled = Pipeline.compile ~machine:Machine.default p.Lang.graph in
  let result = Sim.run_plan ~policy:Plan.One_to_one compiled () in
  Alcotest.(check int) "no leftovers" 0 result.Sim.leftover_items;
  let collector = List.assoc "out" p.Lang.outputs in
  Alcotest.(check int) "all pixels doubled" (2 * 48)
    (List.length (Sink.chunks collector));
  (* Functional check: gain 2 over the generated frames. *)
  let frames = Image.Gen.frame_sequence ~seed:3 (Size.v 8 6) 2 in
  let got =
    List.map
      (fun chunks ->
        Image.of_scanline_list (Size.v 8 6)
          (List.map (fun c -> Image.get c ~x:0 ~y:0) chunks))
      (Sink.chunks_between_frames collector)
  in
  List.iter2
    (fun f g ->
      Alcotest.check image "doubled" (Image_ops.gain f 2.) g)
    frames got

let test_parse_full_pipeline () =
  (* The Figure 1(b) application written in the surface syntax. *)
  let src =
    {|
input  cam    frame=24x18 rate=20 frames=1 seed=7
const  coeff  size=5x5 value=0.04
const  bounds bins=16 lo=-8 hi=8
kernel med    median 3 3
kernel conv   conv 5 5
kernel diff   subtract
kernel hist   histogram bins=16
kernel total  merge bins=16
output stats  window=16x1
cam.out    -> med.in
cam.out    -> conv.in
coeff.out  -> conv.coeff
med.out    -> diff.in0
conv.out   -> diff.in1
diff.out   -> hist.in
bounds.out -> hist.bins
hist.out   -> total.in
total.out  -> stats.in
dep cam -> total
|}
  in
  let p = Lang.parse src in
  Alcotest.(check int) "nine nodes" 9 (Graph.size p.Lang.graph);
  Alcotest.(check int) "one dependency edge" 1
    (List.length (Graph.deps p.Lang.graph));
  let compiled = Pipeline.compile ~machine:Machine.default p.Lang.graph in
  let result = Sim.run_plan ~policy:Plan.Greedy compiled () in
  Alcotest.(check int) "one histogram chunk" 1
    (List.length (Sink.chunks (List.assoc "stats" p.Lang.outputs)));
  Alcotest.(check int) "clean" 0 result.Sim.leftover_items

let expect_parse_error ?needle src =
  match Err.guard (fun () -> Lang.parse src) with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> (
    Alcotest.check err_kind "unsupported" (Err.Unsupported "") e;
    match needle with
    | Some n ->
      Alcotest.(check bool)
        (Printf.sprintf "message mentions %S (got %s)" n (Err.to_string e))
        true
        (contains (Err.to_string e) n)
    | None -> ())

let test_errors () =
  expect_parse_error ~needle:"line 1" "bogus stuff\n";
  expect_parse_error ~needle:"frame" "input cam rate=10\n";
  expect_parse_error ~needle:"integer" "input cam frame=axb rate=10\n";
  expect_parse_error ~needle:"unknown kernel kind"
    "input c frame=4x4 rate=1\nkernel k wat 1\noutput o\nc.out -> k.in\nk.out -> o.in\n";
  expect_parse_error ~needle:"unknown node"
    "input c frame=4x4 rate=1\noutput o\nmissing.out -> o.in\n";
  expect_parse_error ~needle:"duplicate"
    "input c frame=4x4 rate=1\nkernel c gain 1\noutput o\n";
  expect_parse_error ~needle:"no input" "output o\n";
  expect_parse_error ~needle:"no output" "input c frame=4x4 rate=1\n";
  (* A structurally invalid program (unconnected input) is caught by the
     final validation. *)
  expect_parse_error ~needle:"invalid program"
    "input c frame=4x4 rate=1\nkernel g gain 1\noutput o\ng.out -> o.in\n";
  (* NODE.PORT syntax errors. *)
  expect_parse_error ~needle:"NODE.PORT"
    "input c frame=4x4 rate=1\noutput o\nc -> o.in\n"

let test_capacity_option () =
  let src =
    "input c frame=4x4 rate=1 frames=1\nkernel g gain 1\noutput o\n\
     c.out -> g.in cap=64\ng.out -> o.in\n"
  in
  let p = Lang.parse src in
  let g_node = Graph.node_by_name p.Lang.graph "g" in
  match Graph.in_channel p.Lang.graph g_node.Graph.id "in" with
  | Some c -> Alcotest.(check int) "capacity" 64 c.Graph.capacity
  | None -> Alcotest.fail "expected channel"

let test_fir_program () =
  let src =
    "input ant frame=64x1 rate=50 frames=2\nconst taps size=8x1 value=0.125\n\
     kernel f fir 8\noutput bb\nant.out -> f.in\ntaps.out -> f.coeff\n\
     f.out -> bb.in\n"
  in
  let p = Lang.parse src in
  let compiled = Pipeline.compile ~machine:Machine.default p.Lang.graph in
  let result = Sim.run_plan ~policy:Plan.One_to_one compiled () in
  Alcotest.(check int) "fir chunks" (2 * 57)
    (List.length (Sink.chunks (List.assoc "bb" p.Lang.outputs)));
  Alcotest.(check int) "clean" 0 result.Sim.leftover_items;
  (* 1-D golden: the FIR equals a 8x1 convolution. *)
  let frames = Image.Gen.frame_sequence ~seed:1 (Size.v 64 1) 2 in
  let taps = Image.Gen.constant (Size.v 8 1) 0.125 in
  let golden = List.map (fun f -> Image_ops.convolve f ~kernel:taps) frames in
  let got =
    List.map
      (fun chunks ->
        Image.of_scanline_list (Size.v 57 1)
          (List.map (fun c -> Image.get c ~x:0 ~y:0) chunks))
      (Sink.chunks_between_frames (List.assoc "bb" p.Lang.outputs))
  in
  List.iter2 (fun a b -> Alcotest.check image "fir golden" a b) golden got

let test_kernel_kinds_listed () =
  Alcotest.(check bool) "conv present" true
    (List.mem "conv" Lang.kernel_kinds);
  Alcotest.(check bool) "fir present" true (List.mem "fir" Lang.kernel_kinds)

let suite =
  [
    Alcotest.test_case "lang: minimal program" `Quick test_parse_minimal;
    Alcotest.test_case "lang: parse and run" `Quick test_parse_and_run;
    Alcotest.test_case "lang: full pipeline" `Slow test_parse_full_pipeline;
    Alcotest.test_case "lang: errors" `Quick test_errors;
    Alcotest.test_case "lang: channel capacity" `Quick test_capacity_option;
    Alcotest.test_case "lang: 1-D fir" `Quick test_fir_program;
    Alcotest.test_case "lang: kinds" `Quick test_kernel_kinds_listed;
  ]

let test_values_const () =
  let src =
    "input c frame=6x5 rate=5 frames=1\nconst k size=2x1 values=1,2\n\
     kernel f fir 2\noutput o\nc.out -> f.in\nk.out -> f.coeff\nf.out -> o.in\n"
  in
  let p = Lang.parse src in
  let compiled = Pipeline.compile ~machine:Machine.default p.Lang.graph in
  ignore (Sim.run_plan ~policy:Plan.One_to_one compiled ());
  let chunks = Sink.chunks (List.assoc "o" p.Lang.outputs) in
  Alcotest.(check int) "fir output count" ((6 - 1) * 5) (List.length chunks);
  (* Values were used in scan order: taps [1;2] flipped over [p0;p1] give
     2*p0 + 1*p1... verified against the golden convolution. *)
  let frames = Image.Gen.frame_sequence ~seed:1 (Size.v 6 5) 1 in
  let taps = Image.of_scanline_list (Size.v 2 1) [ 1.; 2. ] in
  let golden = Image_ops.convolve (List.hd frames) ~kernel:taps in
  let got =
    Image.of_scanline_list (Size.v 5 5)
      (List.map (fun c -> Image.get c ~x:0 ~y:0) chunks)
  in
  Alcotest.check image "values respected" golden got

let test_values_errors () =
  expect_parse_error ~needle:"expected 4 numbers"
    "input c frame=4x4 rate=1\nconst k size=2x2 values=1,2,3\noutput o\nc.out -> o.in\n";
  expect_parse_error ~needle:"exactly one"
    "input c frame=4x4 rate=1\nconst k size=2x2 value=1 values=1,2,3,4\n\
     output o\nc.out -> o.in\n"

let suite =
  suite
  @ [
      Alcotest.test_case "lang: values= const" `Quick test_values_const;
      Alcotest.test_case "lang: values errors" `Quick test_values_errors;
    ]
