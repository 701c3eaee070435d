open Bp_kernel
open Bp_geometry

let spec ?cycles ~w ~h () =
  let cycles = Option.value cycles ~default:(Costs.median ~w ~h) in
  let methods =
    [
      Method_spec.on_data ~cycles ~name:"runMedian" ~inputs:[ "in" ]
        ~outputs:[ "out" ] ();
    ]
  in
  let make_behaviour () =
    (* One sort window per behaviour instance, reused across firings. *)
    let scratch = Array.make (w * h) 0. in
    let run _m ~alloc ~inputs ~outputs =
      let out = alloc Bp_geometry.Size.one in
      Bp_image.Ops.median_into ~scratch inputs.(0) ~w ~h ~dst:out;
      outputs.(0) <- out
    in
    Behaviour.iteration_kernel ~methods ~run ()
  in
  Spec.v
    ~class_name:(Printf.sprintf "%dx%d Median" w h)
    ~inputs:[ Port.input "in" (Window.windowed w h) ]
    ~outputs:[ Port.output "out" Window.pixel ]
    ~methods ~make_behaviour ()
