open Bp_kernel
open Bp_geometry
module Image = Bp_image.Image

type mode = Hold | Zero_stuff

let reference ~mode ~fx ~fy img =
  let w = Image.width img and h = Image.height img in
  Image.init (Size.v (w * fx) (h * fy)) (fun ~x ~y ->
      match mode with
      | Hold -> Image.get img ~x:(x / fx) ~y:(y / fy)
      | Zero_stuff ->
        if x mod fx = 0 && y mod fy = 0 then
          Image.get img ~x:(x / fx) ~y:(y / fy)
        else 0.)

let spec ?(cycles = 3) ?(mode = Hold) ~fx ~fy () =
  if fx <= 0 || fy <= 0 then
    Bp_util.Err.invalidf "upsample: factors %dx%d must be positive" fx fy;
  let methods =
    [
      Method_spec.on_data ~cycles ~name:"expand" ~inputs:[ "in" ]
        ~outputs:[ "out" ] ();
    ]
  in
  let run _m ~alloc ~inputs ~outputs =
    let v = Image.get inputs.(0) ~x:0 ~y:0 in
    let out = alloc (Size.v fx fy) in
    (match mode with
    | Hold -> Image.fill out v
    | Zero_stuff ->
      (* Acquired chunks are all-zero; only the corner needs writing. *)
      Image.set out ~x:0 ~y:0 v);
    outputs.(0) <- out
  in
  Spec.v
    ~class_name:(Printf.sprintf "Upsample %dx%d" fx fy)
    ~inputs:[ Port.input "in" Window.pixel ]
    ~outputs:[ Port.output "out" (Window.block fx fy) ]
    ~methods
    ~make_behaviour:(fun () -> Behaviour.iteration_kernel ~methods ~run ())
    ()
