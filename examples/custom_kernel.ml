(* Writing a new kernel: a runtime-reconfigurable threshold.

   Demonstrates the parts of the kernel model the paper emphasizes: a
   kernel with two methods sharing private state — one triggered by pixel
   data, one triggered by a *user-defined control token* that changes the
   threshold mid-stream — plus a replicated configuration input. The
   control source emits the retune token between frames, and the compiler
   accounts for the handler's cycles like any other method.

   Run with: dune exec examples/custom_kernel.exe *)

open Block_parallel

let retune_token = Token.User "retune"

(* The threshold kernel: output 1.0 where the pixel exceeds the current
   threshold. [applyThreshold] runs per pixel; [retune] runs when the
   retune token arrives on the same stream and doubles the threshold. *)
let threshold_kernel ~initial () =
  let methods =
    [
      Method_spec.on_data ~cycles:3 ~name:"applyThreshold" ~inputs:[ "in" ]
        ~outputs:[ "out" ] ();
      Method_spec.on_token ~cycles:5 ~name:"retune" ~input:"in"
        ~kind:retune_token ~outputs:[ "out" ] ~forward_token:false ();
    ]
  in
  let make_behaviour () =
    let level = ref initial in
    (* Data bodies read their trigger inputs from [inputs] and store their
       results into [outputs], both in the method's declaration order. *)
    let run m ~alloc ~inputs ~outputs =
      match m with
      | "applyThreshold" ->
        let px = inputs.(0) in
        let out = alloc (Image.size px) in
        Image.map_into (fun v -> if v > !level then 1. else 0.) ~src:px
          ~dst:out;
        outputs.(0) <- out
      | _ -> assert false
    in
    let token_run m ~alloc:_ _tok =
      match m with
      | "retune" ->
        level := !level *. 2.;
        []
      | _ -> assert false
    in
    Behaviour.iteration_kernel ~methods ~run ~token_run ()
  in
  Kernel.v ~class_name:"Threshold"
    ~token_budgets:[ Token.Bound.v retune_token ~max_per_frame:1 ]
    ~inputs:[ Port.input "in" Window.pixel ]
    ~outputs:[ Port.output "out" Window.pixel ]
    ~methods ~make_behaviour ~state_words:1 ()

(* A source variant that injects the retune token after each frame: it
   wraps the pixel stream and emits the user token right after EOF. *)
let retuning_forward () =
  let make_behaviour () =
    let frame_idx = ref 0 in
    let try_step (io : Behaviour.io) =
      match io.peek "in" with
      | None -> None
      | Some _ ->
        if io.space "out" < 2 then None
        else begin
          let item = io.pop "in" in
          io.push "out" item;
          (match item with
          | Item.Ctl tok when tok.Token.kind = Token.End_of_frame ->
            io.push "out" (Item.ctl (Token.user "retune" !frame_idx));
            incr frame_idx
          | _ -> ());
          Some { Behaviour.method_name = "forward"; cycles = 1 }
        end
    in
    let starved (io : Behaviour.io) = not (io.has_input "in") in
    Behaviour.v ~starved try_step
  in
  Kernel.v ~class_name:"Retune Injector" ~role:Kernel.Replicate
    ~parallelization:Kernel.Serial
    ~inputs:[ Port.input "in" Window.pixel ]
    ~outputs:[ Port.output "out" Window.pixel ]
    ~methods:[] ~make_behaviour ()

let () =
  let frame = Size.v 16 12 in
  let rate = Rate.hz 20. in
  let n_frames = 3 in
  let frames = Image.Gen.frame_sequence ~seed:8 frame n_frames in
  let g = Graph.create () in
  let src =
    Graph.add g
      ~meta:(Graph.Source_meta { frame; rate })
      (Source.spec ~frame ~frames ())
  in
  let injector = Graph.add g (retuning_forward ()) in
  let thresh = Graph.add g (threshold_kernel ~initial:2. ()) in
  let results = Sink.collector () in
  let sink = Graph.add g (Sink.spec ~window:Window.pixel results ()) in
  Graph.connect g ~from:(src, "out") ~into:(injector, "in");
  Graph.connect g ~from:(injector, "out") ~into:(thresh, "in");
  Graph.connect g ~from:(thresh, "out") ~into:(sink, "in");

  let mapping = Mapping.one_to_one g in
  let result = Sim.run ~graph:g ~mapping ~machine:Machine.default () in
  Format.printf "%a@." Sim.pp_result result;

  (* Reference: frame 0 is judged at the initial level, and each retune
     token (arriving after a frame's EOF) doubles the level for the next
     frame. *)
  let expected =
    List.mapi
      (fun i f ->
        let level = 2. *. (2. ** float_of_int i) in
        Image.map (fun v -> if v > level then 1. else 0.) f)
      frames
  in
  let got =
    List.map
      (fun chunks ->
        Image.of_scanline_list frame
          (List.map (fun c -> Image.get c ~x:0 ~y:0) chunks))
      (Sink.chunks_between_frames results)
  in
  let worst =
    List.fold_left2
      (fun acc a b -> Float.max acc (Image.max_abs_diff a b))
      0. expected got
  in
  Format.printf "thresholded frames: %d, worst |diff| vs reference = %g@."
    (List.length got) worst
