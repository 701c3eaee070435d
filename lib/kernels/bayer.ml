open Bp_kernel
open Bp_geometry
module Image = Bp_image.Image

let rec make ?(cycles = Costs.bayer) ~frame ~start ~stride () =
  if frame.Size.w < 3 || frame.Size.h < 3 then
    Bp_util.Err.invalidf "bayer: frame %s too small" (Size.to_string frame);
  if start < 0 || stride <= 0 || start >= stride then
    Bp_util.Err.invalidf "bayer: bad replica position %d/%d" start stride;
  let gw = frame.Size.w - 2 and gh = frame.Size.h - 2 in
  let methods =
    [
      Method_spec.on_data ~cycles ~name:"demosaic" ~inputs:[ "in" ]
        ~outputs:[ "r"; "g"; "b" ] ();
    ]
  in
  let windows_per_frame = gw * gh in
  let fires_per_frame =
    (* Windows i in [0, N) with i = start (mod stride). *)
    (windows_per_frame - start + stride - 1) / stride
  in
  if fires_per_frame <= 0 then
    Bp_util.Err.invalidf "bayer: replica %d of %d would never fire" start
      stride;
  let make_behaviour () =
    (* Replica [start] of [stride] sees every [stride]-th window of the
       global scan order (round-robin distribution), so the iteration index
       advances by [stride] and resets each frame — the paper's
       "programmatic" parallelization of a position-dependent kernel. *)
    let fires = ref 0 in
    let run _m ~alloc ~inputs ~outputs =
      let win = inputs.(0) in
      let idx = start + (!fires * stride) in
      fires := (!fires + 1) mod fires_per_frame;
      (* Global coordinates of the window center in the mosaic. *)
      let cx = (idx mod gw) + 1 and cy = (idx / gw) + 1 in
      let g ~x ~y = Image.get win ~x:(x + 1) ~y:(y + 1) in
      (* Same per-site formulas as the golden [Ops.bayer_demosaic], with
         window-relative coordinates (center = (0,0)). *)
      let r, gr, b =
        match (cx mod 2, cy mod 2) with
        | 0, 0 ->
          ( g ~x:0 ~y:0,
            (g ~x:(-1) ~y:0 +. g ~x:1 ~y:0 +. g ~x:0 ~y:(-1) +. g ~x:0 ~y:1)
            /. 4.,
            (g ~x:(-1) ~y:(-1) +. g ~x:1 ~y:(-1) +. g ~x:(-1) ~y:1
            +. g ~x:1 ~y:1)
            /. 4. )
        | 1, 1 ->
          ( (g ~x:(-1) ~y:(-1) +. g ~x:1 ~y:(-1) +. g ~x:(-1) ~y:1
            +. g ~x:1 ~y:1)
            /. 4.,
            (g ~x:(-1) ~y:0 +. g ~x:1 ~y:0 +. g ~x:0 ~y:(-1) +. g ~x:0 ~y:1)
            /. 4.,
            g ~x:0 ~y:0 )
        | 1, 0 ->
          ( (g ~x:(-1) ~y:0 +. g ~x:1 ~y:0) /. 2.,
            g ~x:0 ~y:0,
            (g ~x:0 ~y:(-1) +. g ~x:0 ~y:1) /. 2. )
        | _ ->
          ( (g ~x:0 ~y:(-1) +. g ~x:0 ~y:1) /. 2.,
            g ~x:0 ~y:0,
            (g ~x:(-1) ~y:0 +. g ~x:1 ~y:0) /. 2. )
      in
      let px v =
        let p = alloc Size.one in
        Image.set p ~x:0 ~y:0 v;
        p
      in
      outputs.(0) <- px r;
      outputs.(1) <- px gr;
      outputs.(2) <- px b
    in
    Behaviour.iteration_kernel ~methods ~run ()
  in
  let parallelization =
    Spec.Custom
      (fun ~replica ~ways -> make ~cycles ~frame ~start:replica ~stride:ways ())
  in
  Spec.v ~class_name:"Bayer Demosaic" ~state_words:4 ~parallelization
    ~inputs:[ Port.input "in" (Window.windowed 3 3) ]
    ~outputs:
      [
        Port.output "r" Window.pixel;
        Port.output "g" Window.pixel;
        Port.output "b" Window.pixel;
      ]
    ~methods ~make_behaviour ()

let spec ?cycles ~frame () = make ?cycles ~frame ~start:0 ~stride:1 ()
