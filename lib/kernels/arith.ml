open Bp_kernel
open Bp_geometry

let pixel_port = Window.pixel

let binary ~class_name ~cycles f () =
  let methods =
    [
      Method_spec.on_data ~cycles ~name:"run" ~inputs:[ "in0"; "in1" ]
        ~outputs:[ "out" ] ();
    ]
  in
  let run _m ~alloc ~inputs ~outputs =
    let a = inputs.(0) and b = inputs.(1) in
    let out = alloc (Bp_image.Image.size a) in
    Bp_image.Image.map2_into f a b ~dst:out;
    outputs.(0) <- out
  in
  Spec.v ~class_name
    ~inputs:[ Port.input "in0" pixel_port; Port.input "in1" pixel_port ]
    ~outputs:[ Port.output "out" pixel_port ]
    ~methods
    ~make_behaviour:(fun () -> Behaviour.iteration_kernel ~methods ~run ())
    ()

let subtract () = binary ~class_name:"Subtract" ~cycles:Costs.subtract ( -. ) ()

let absdiff () =
  binary ~class_name:"AbsDiff" ~cycles:Costs.subtract
    (fun a b -> Float.abs (a -. b))
    ()

let add2 () = binary ~class_name:"Add" ~cycles:Costs.subtract ( +. ) ()

let unary ~class_name ~cycles f () =
  let methods =
    [
      Method_spec.on_data ~cycles ~name:"run" ~inputs:[ "in" ]
        ~outputs:[ "out" ] ();
    ]
  in
  let run _m ~alloc ~inputs ~outputs =
    let src = inputs.(0) in
    let out = alloc (Bp_image.Image.size src) in
    Bp_image.Image.map_into f ~src ~dst:out;
    outputs.(0) <- out
  in
  Spec.v ~class_name
    ~inputs:[ Port.input "in" pixel_port ]
    ~outputs:[ Port.output "out" pixel_port ]
    ~methods
    ~make_behaviour:(fun () -> Behaviour.iteration_kernel ~methods ~run ())
    ()

let gain k =
  unary ~class_name:(Printf.sprintf "Gain %g" k) ~cycles:Costs.gain
    (fun v -> v *. k)
    ()

let add_const c =
  unary ~class_name:(Printf.sprintf "Add %g" c) ~cycles:Costs.gain
    (fun v -> v +. c)
    ()

let abs_val () = unary ~class_name:"Abs" ~cycles:Costs.gain Float.abs ()

let forward ?(class_name = "Forward") () =
  unary ~class_name ~cycles:1 Fun.id ()
