open Bp_kernel
open Bp_geometry

let input_window ~w ~h = Window.windowed w h

let spec ?cycles ~w ~h () =
  let cycles = Option.value cycles ~default:(Costs.convolve ~w ~h) in
  let coeff_window =
    Window.v
      ~offset:(Offset.centered (Size.v w h))
      ~step:(Step.v w h) (Size.v w h)
  in
  let methods =
    [
      (* Registered first so pending coefficients always load before the
         next convolution fires. *)
      Method_spec.on_data
        ~cycles:(Costs.load_coeff ~w ~h)
        ~name:"loadCoeff" ~inputs:[ "coeff" ] ~outputs:[] ();
      Method_spec.on_data ~cycles ~name:"runConvolve" ~inputs:[ "in" ]
        ~outputs:[ "out" ] ();
    ]
  in
  let make_behaviour () =
    (* Private state shared between the two methods, as in the paper's
       Java kernel: [loadCoeff] writes it, [runConvolve] reads it. *)
    let coeff = Bp_image.Image.create (Size.v w h) in
    let run_convolve ~alloc ~inputs ~outputs =
      let out = alloc Size.one in
      Bp_image.Ops.convolve_into inputs.(0) ~kernel:coeff ~dst:out;
      outputs.(0) <- out
    in
    let load_coeff ~alloc:_ ~inputs ~outputs:_ =
      (* Copy into private state instead of retaining the input chunk:
         the runtime releases consumed inputs back to the pool, so a
         retained reference would be recycled under us. *)
      Bp_image.Image.blit ~src:inputs.(0) ~dst:coeff ~x:0 ~y:0
    in
    let run = function
      | "runConvolve" -> run_convolve
      | "loadCoeff" -> load_coeff
      | other -> Bp_util.Err.graphf "convolution: unknown method %S" other
    in
    Behaviour.iteration_kernel ~methods ~run ()
  in
  Spec.v
    ~class_name:(Printf.sprintf "%dx%d Conv" w h)
    ~state_words:(w * h)
    ~inputs:
      [
        Port.input "in" (input_window ~w ~h);
        Port.input ~replicated:true "coeff" coeff_window;
      ]
    ~outputs:[ Port.output "out" Window.pixel ]
    ~methods ~make_behaviour ()
