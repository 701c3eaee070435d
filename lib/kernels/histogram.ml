open Bp_kernel
open Bp_geometry
module Image = Bp_image.Image

let bin_lower_bounds ~bins ~lo ~hi =
  if bins <= 0 then Bp_util.Err.invalidf "histogram needs at least one bin";
  if not (hi > lo) then Bp_util.Err.invalidf "histogram range is empty";
  let width = (hi -. lo) /. float_of_int bins in
  Image.init (Size.v bins 1) (fun ~x ~y:_ -> lo +. (float_of_int x *. width))

let bins_window bins =
  Window.v ~step:(Step.v bins 1) (Size.v bins 1)

(* The paper's [findBin]: linear search for the last bin whose lower bound
   is at or below the value; values below every bound clamp to bin 0. *)
let find_bin ranges v =
  let bins = Array.length ranges in
  let rec search i best =
    if i >= bins then best
    else if v >= ranges.(i) then search (i + 1) i
    else best
  in
  search 0 0

let reference img ~bins ~lo ~hi =
  let bounds = bin_lower_bounds ~bins ~lo ~hi in
  let ranges = Array.init bins (fun i -> Image.get bounds ~x:i ~y:0) in
  let counts = Array.make bins 0. in
  Image.iter_pixels
    (fun ~x:_ ~y:_ v ->
      let b = find_bin ranges v in
      counts.(b) <- counts.(b) +. 1.)
    img;
  Image.init (Size.v bins 1) (fun ~x ~y:_ -> counts.(x))

let spec ?count_cycles ~bins () =
  let count_cycles =
    Option.value count_cycles ~default:(Costs.histogram_count ~bins)
  in
  let methods =
    [
      (* Registered before [count] so pending bin bounds are always loaded
         ahead of further counting. *)
      Method_spec.on_data
        ~cycles:(2 * bins)
        ~name:"configureBins" ~inputs:[ "bins" ] ~outputs:[] ();
      Method_spec.on_data ~cycles:count_cycles ~name:"count" ~inputs:[ "in" ]
        ~outputs:[] ();
      Method_spec.on_token
        ~cycles:(Costs.histogram_finish ~bins)
        ~name:"finishCount" ~input:"in" ~kind:Bp_token.Token.End_of_frame
        ~outputs:[ "out" ] ();
    ]
  in
  let make_behaviour () =
    let counts = Array.make bins 0. in
    let ranges = Array.make bins 0. in
    let count ~alloc:_ ~inputs ~outputs:_ =
      let v = Image.get inputs.(0) ~x:0 ~y:0 in
      let b = find_bin ranges v in
      counts.(b) <- counts.(b) +. 1.
    in
    let configure_bins ~alloc:_ ~inputs ~outputs:_ =
      let img = inputs.(0) in
      for i = 0 to bins - 1 do
        ranges.(i) <- Image.get img ~x:i ~y:0;
        counts.(i) <- 0.
      done
    in
    let run = function
      | "count" -> count
      | "configureBins" -> configure_bins
      | other -> Bp_util.Err.graphf "histogram: unknown method %S" other
    in
    let token_run m ~alloc _tok =
      match m with
      | "finishCount" ->
        let out = alloc (Size.v bins 1) in
        for i = 0 to bins - 1 do
          Image.set out ~x:i ~y:0 counts.(i)
        done;
        Array.fill counts 0 bins 0.;
        [ ("out", out) ]
      | other -> Bp_util.Err.graphf "histogram: unknown token method %S" other
    in
    Behaviour.iteration_kernel ~methods ~run ~token_run ()
  in
  Spec.v ~class_name:"Histogram" ~state_words:(2 * bins)
    ~inputs:
      [
        Port.input "in" Window.pixel;
        Port.input ~replicated:true "bins" (bins_window bins);
      ]
    ~outputs:[ Port.output "out" (bins_window bins) ]
    ~methods ~make_behaviour ()

let merge ~bins () =
  let methods =
    [
      Method_spec.on_data
        ~cycles:(Costs.merge_accumulate ~bins)
        ~name:"accumulate" ~inputs:[ "in" ] ~outputs:[] ();
      Method_spec.on_token
        ~cycles:(Costs.merge_emit ~bins)
        ~name:"emit" ~input:"in" ~kind:Bp_token.Token.End_of_frame
        ~outputs:[ "out" ] ();
    ]
  in
  let make_behaviour () =
    let sums = Array.make bins 0. in
    let accumulate ~alloc:_ ~inputs ~outputs:_ =
      let img = inputs.(0) in
      for i = 0 to bins - 1 do
        sums.(i) <- sums.(i) +. Image.get img ~x:i ~y:0
      done
    in
    let run = function
      | "accumulate" -> accumulate
      | other -> Bp_util.Err.graphf "merge: unknown method %S" other
    in
    let token_run m ~alloc _tok =
      match m with
      | "emit" ->
        let out = alloc (Size.v bins 1) in
        for i = 0 to bins - 1 do
          Image.set out ~x:i ~y:0 sums.(i)
        done;
        Array.fill sums 0 bins 0.;
        [ ("out", out) ]
      | other -> Bp_util.Err.graphf "merge: unknown token method %S" other
    in
    Behaviour.iteration_kernel ~methods ~run ~token_run ()
  in
  Spec.v ~class_name:"Merge" ~state_words:bins ~parallelization:Spec.Serial
    ~inputs:[ Port.input "in" (bins_window bins) ]
    ~outputs:[ Port.output "out" (bins_window bins) ]
    ~methods ~make_behaviour ()
