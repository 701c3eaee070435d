(* Bechamel micro-benchmarks for the inner loops that bpbench/ cannot
   time on their own: the stripe and reuse arithmetic, the golden image
   kernels, the .bp parser and the event heap. Compile passes, engine
   runs and the paper's figures are measured elsewhere: per pass and end
   to end by `bp_bench` (bpbench/README.md), and as figures by
   `bpc report all`.

   Run with: dune exec bench/main.exe *)

open Block_parallel
open Bechamel
open Toolkit

let bench_parallelize_math =
  Test.make ~name:"stripe-ranges (fig 10)"
    (Staged.stage @@ fun () ->
     ignore
       (Split_join.stripe_ranges ~frame_w:96
          ~window:(Conv.input_window ~w:5 ~h:5)
          ~parts:5))

let bench_reuse_math =
  Test.make ~name:"reuse-stats (fig 5)"
    (Staged.stage @@ fun () ->
     ignore (Reuse.of_window (Conv.input_window ~w:5 ~h:5)))

let bench_conv_kernel =
  Test.make ~name:"golden-convolve-32x32"
    (let img = Image.Gen.ramp (Size.v 32 32) in
     let k = Image.Gen.constant (Size.v 5 5) 0.04 in
     Staged.stage @@ fun () -> ignore (Image_ops.convolve img ~kernel:k))

let bench_median_kernel =
  Test.make ~name:"golden-median-32x32"
    (let img = Image.Gen.ramp (Size.v 32 32) in
     Staged.stage @@ fun () -> ignore (Image_ops.median img ~w:3 ~h:3))

let bench_lang_parse =
  Test.make ~name:"lang-parse (.bp front end)"
    (let src =
       "input cam frame=24x18 rate=20 frames=1\n\
        const coeff size=5x5 value=0.04\n\
        const bounds bins=16 lo=-8 hi=8\n\
        kernel med median 3 3\nkernel conv conv 5 5\n\
        kernel diff subtract\nkernel hist histogram bins=16\n\
        kernel total merge bins=16\noutput stats window=16x1\n\
        cam.out -> med.in\ncam.out -> conv.in\ncoeff.out -> conv.coeff\n\
        med.out -> diff.in0\nconv.out -> diff.in1\ndiff.out -> hist.in\n\
        bounds.out -> hist.bins\nhist.out -> total.in\n\
        total.out -> stats.in\ndep cam -> total\n"
     in
     Staged.stage @@ fun () -> ignore (Lang.parse src))

let bench_heap =
  Test.make ~name:"event-heap-1k"
    (Staged.stage @@ fun () ->
     let h = Bp_sim.Heap.create ~dummy:0 () in
     for i = 0 to 999 do
       Bp_sim.Heap.push h ~time:(float_of_int ((i * 7919) mod 997)) i
     done;
     while not (Bp_sim.Heap.is_empty h) do
       ignore (Bp_sim.Heap.pop h)
     done)

let benchmarks =
  [
    bench_parallelize_math;
    bench_reuse_math;
    bench_lang_parse;
    bench_conv_kernel;
    bench_median_kernel;
    bench_heap;
  ]

(* Bechamel's full analysis pipeline, rendered as a simple table. *)
let run_benchmarks () =
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) () in
  let instances = Instance.[ monotonic_clock ] in
  let tests = Test.make_grouped ~name:"block-parallel" benchmarks in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) instance raw) instances
  in
  let table = Table.create ~title:"micro-benchmarks" [ "benchmark"; "ns/run" ] in
  List.iter
    (fun result ->
      Hashtbl.iter
        (fun name ols ->
          let ns =
            match Analyze.OLS.estimates ols with
            | Some [ est ] -> Printf.sprintf "%.0f" est
            | _ -> "-"
          in
          Table.add_row table [ name; ns ])
        result)
    results;
  Table.print table

let () = run_benchmarks ()
