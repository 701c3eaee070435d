open Bp_kernel
open Bp_geometry

let spec ?(cycles = 2) ~fx ~fy () =
  if fx <= 0 || fy <= 0 then
    Bp_util.Err.invalidf "decimate: factors %dx%d must be positive" fx fy;
  let methods =
    [
      Method_spec.on_data ~cycles ~name:"pick" ~inputs:[ "in" ]
        ~outputs:[ "out" ] ();
    ]
  in
  (* Pass-through: storing the input chunk into the output slot transfers
     its ownership onward, so the runtime will not release it. *)
  let run _m ~alloc:_ ~inputs ~outputs = outputs.(0) <- inputs.(0) in
  Spec.v
    ~class_name:(Printf.sprintf "Decimate %dx%d" fx fy)
    ~inputs:[ Port.input "in" (Window.v ~step:(Step.v fx fy) Size.one) ]
    ~outputs:[ Port.output "out" Window.pixel ]
    ~methods
    ~make_behaviour:(fun () -> Behaviour.iteration_kernel ~methods ~run ())
    ()
