open Bp_kernel
open Bp_geometry
module Image = Bp_image.Image
module Token = Bp_token.Token
module Err = Bp_util.Err

(* Interned success values: a fresh [Some fired] per firing would be
   a steady five-word allocation on the simulator's hottest path. *)
let fired_route =
  Some { Behaviour.method_name = "route"; cycles = Costs.split }
let fired_broadcast =
  Some { Behaviour.method_name = "broadcast"; cycles = Costs.split }
let fired_collect =
  Some { Behaviour.method_name = "collect"; cycles = Costs.split }
let fired_mergeToken =
  Some { Behaviour.method_name = "mergeToken"; cycles = Costs.split }
let fired_routeColumn =
  Some { Behaviour.method_name = "routeColumn"; cycles = Costs.split }
let fired_copy =
  Some { Behaviour.method_name = "copy"; cycles = 1 }


let out_names ways = List.init ways (fun k -> Printf.sprintf "out%d" k)
let in_names ways = List.init ways (fun k -> Printf.sprintf "in%d" k)

let split ?class_name ?pattern ~window ~ways () =
  if ways < 2 then Err.invalidf "split needs at least 2 ways";
  let pattern = Option.value pattern ~default:(Array.make ways 1) in
  if Array.length pattern <> ways then
    Err.invalidf "split pattern length %d does not match %d ways"
      (Array.length pattern) ways;
  Array.iter
    (fun p ->
      if p <= 0 then Err.invalidf "split pattern entries must be positive")
    pattern;
  let class_name = Option.value class_name ~default:"Split" in
  let outs = out_names ways in
  let make_behaviour () =
    let branch = ref 0 and sent = ref 0 in
    let try_step (io : Behaviour.io) =
      match io.peek "in" with
      | None -> None
      | Some (Item.Data _) ->
        let target = List.nth outs !branch in
        if io.space target < 1 then None
        else begin
          let img = Behaviour.pop_data io "in" in
          io.push target (Item.data img);
          incr sent;
          if !sent >= pattern.(!branch) then begin
            sent := 0;
            branch := (!branch + 1) mod ways
          end;
          fired_route
        end
      | Some (Item.Ctl tok) ->
        if List.exists (fun o -> io.space o < 1) outs then None
        else begin
          ignore (io.pop "in");
          List.iter (fun o -> io.push o (Item.ctl tok)) outs;
          if tok.Token.kind = Token.End_of_frame then begin
            branch := 0;
            sent := 0
          end;
          fired_broadcast
        end
    in
    let starved (io : Behaviour.io) = not (io.has_input "in") in
    Behaviour.v ~starved try_step
  in
  Spec.v ~role:Spec.Split ~class_name ~parallelization:Spec.Serial
    ~inputs:[ Port.input "in" window ]
    ~outputs:(List.map (fun o -> Port.output o window) outs)
    ~methods:[] ~make_behaviour ()

let join ?class_name ?pattern ~window ~ways () =
  if ways < 2 then Err.invalidf "join needs at least 2 ways";
  let pattern = Option.value pattern ~default:(Array.make ways 1) in
  if Array.length pattern <> ways then
    Err.invalidf "join pattern length %d does not match %d ways"
      (Array.length pattern) ways;
  Array.iter
    (fun p -> if p <= 0 then Err.invalidf "join pattern entries must be positive")
    pattern;
  let class_name = Option.value class_name ~default:"Join" in
  let ins = in_names ways in
  let ins_arr = Array.of_list ins in
  let make_behaviour () =
    let branch = ref 0 and taken = ref 0 in
    let advance () =
      incr taken;
      if !taken >= pattern.(!branch) then begin
        taken := 0;
        branch := (!branch + 1) mod ways
      end
    in
    let try_step (io : Behaviour.io) =
      let current = ins_arr.(!branch) in
      match io.peek current with
      | None -> None
      | Some (Item.Data _) ->
        if io.space "out" < 1 then None
        else begin
          let img = Behaviour.pop_data io current in
          io.push "out" (Item.data img);
          advance ();
          fired_collect
        end
      | Some (Item.Ctl tok) ->
        (* Merge: consume the token copy from every branch, emit once. *)
        let all_match =
          List.for_all
            (fun i ->
              match io.peek i with
              | Some (Item.Ctl t) -> Token.kind_equal t.Token.kind tok.Token.kind
              | Some (Item.Data _) | None -> false)
            ins
        in
        if not all_match then None
        else if io.space "out" < 1 then None
        else begin
          List.iter (fun i -> ignore (io.pop i)) ins;
          io.push "out" (Item.ctl tok);
          if tok.Token.kind = Token.End_of_frame then begin
            branch := 0;
            taken := 0
          end;
          fired_mergeToken
        end
    in
    (* Every join branch starts by peeking the current round-robin input,
       so an empty front there is a guaranteed decline. *)
    let starved (io : Behaviour.io) =
      not (io.has_input ins_arr.(!branch))
    in
    Behaviour.v ~starved try_step
  in
  Spec.v ~role:Spec.Join ~class_name ~parallelization:Spec.Serial
    ~inputs:(List.map (fun i -> Port.input i window) ins)
    ~outputs:[ Port.output "out" window ]
    ~methods:[] ~make_behaviour ()

let column_split ?class_name ~ranges ~frame () =
  let parts = Array.length ranges in
  if parts < 2 then Err.invalidf "column split needs at least 2 stripes";
  let w = frame.Size.w in
  Array.iteri
    (fun k (c0, c1) ->
      if c0 < 0 || c1 > w || c0 >= c1 then
        Err.invalidf "column split: bad range [%d,%d) for width %d" c0 c1 w;
      if k = 0 && c0 <> 0 then
        Err.invalidf "column split: first range must start at column 0";
      if k = parts - 1 && c1 <> w then
        Err.invalidf "column split: last range must end at column %d" w;
      if k > 0 then begin
        let p0, p1 = ranges.(k - 1) in
        if c0 > p1 then
          Err.invalidf "column split: gap between ranges %d and %d" (k - 1) k;
        if c0 <= p0 then
          Err.invalidf "column split: ranges must advance monotonically"
      end)
    ranges;
  let class_name = Option.value class_name ~default:"Split" in
  let outs = out_names parts in
  let make_behaviour () =
    let x = ref 0 in
    let try_step (io : Behaviour.io) =
      match io.peek "in" with
      | None -> None
      | Some (Item.Data _) ->
        let targets =
          List.filteri
            (fun k _ ->
              let c0, c1 = ranges.(k) in
              !x >= c0 && !x < c1)
            outs
        in
        if List.exists (fun o -> io.space o < 1) targets then None
        else begin
          let img = Behaviour.pop_data io "in" in
          (* Overlap columns go to two stripes; each channel must own its
             chunk, so stripes beyond the first get pool-backed copies. *)
          List.iteri
            (fun k o ->
              let chunk =
                if k = 0 then img
                else begin
                  let d = io.acquire (Image.size img) in
                  Image.blit ~src:img ~dst:d ~x:0 ~y:0;
                  d
                end
              in
              io.push o (Item.data chunk))
            targets;
          x := (!x + 1) mod w;
          fired_routeColumn
        end
      | Some (Item.Ctl tok) ->
        if List.exists (fun o -> io.space o < 1) outs then None
        else begin
          ignore (io.pop "in");
          List.iter (fun o -> io.push o (Item.ctl tok)) outs;
          if tok.Token.kind = Token.End_of_frame then x := 0;
          fired_broadcast
        end
    in
    let starved (io : Behaviour.io) = not (io.has_input "in") in
    Behaviour.v ~starved try_step
  in
  Spec.v ~role:Spec.Split ~class_name ~parallelization:Spec.Serial
    ~inputs:[ Port.input "in" Window.pixel ]
    ~outputs:(List.map (fun o -> Port.output o Window.pixel) outs)
    ~methods:[] ~make_behaviour ()

let replicate ?class_name ~window () =
  let class_name = Option.value class_name ~default:"Replicate" in
  let make_behaviour () =
    let try_step (io : Behaviour.io) =
      match io.peek "in" with
      | None -> None
      | Some _ ->
        if io.space "out" < 1 then None
        else begin
          io.push "out" (io.pop "in");
          fired_copy
        end
    in
    let starved (io : Behaviour.io) = not (io.has_input "in") in
    Behaviour.v ~starved try_step
  in
  Spec.v ~role:Spec.Replicate ~class_name ~parallelization:Spec.Serial
    ~inputs:[ Port.input "in" window ]
    ~outputs:[ Port.output "out" window ]
    ~methods:[] ~make_behaviour ()

(* Window-origin counts per stripe when splitting a frame into [parts]
   column stripes. *)
let origin_counts ~frame_w ~(window : Window.t) ~parts =
  let w = window.Window.size.Size.w and sx = window.Window.step.Step.sx in
  if frame_w < w then
    Err.invalidf "stripe_ranges: frame width %d below window %d" frame_w w;
  let n = ((frame_w - w) / sx) + 1 in
  if n < parts then
    Err.invalidf "stripe_ranges: only %d window columns for %d stripes" n
      parts;
  Array.init parts (fun k -> (n * (k + 1) / parts) - (n * k / parts))

let stripe_ranges ~frame_w ~window ~parts =
  let counts = origin_counts ~frame_w ~window ~parts in
  let w = window.Window.size.Size.w and sx = window.Window.step.Step.sx in
  let ranges = Array.make parts (0, 0) in
  let first = ref 0 in
  Array.iteri
    (fun k cnt ->
      let o_first = !first * sx and o_last = (!first + cnt - 1) * sx in
      let a = o_first and b = o_last + w in
      ranges.(k) <- (a, b);
      first := !first + cnt)
    counts;
  (* Stretch the last stripe to the frame edge so every input column has a
     home even when the step leaves unused trailing columns. *)
  (let a, _ = ranges.(parts - 1) in
   ranges.(parts - 1) <- (a, frame_w));
  ranges

let stripe_windows_per_row ~frame_w ~window ~ranges =
  ignore frame_w;
  let w = window.Window.size.Size.w and sx = window.Window.step.Step.sx in
  Array.map (fun (a, b) -> ((b - a - w) / sx) + 1) ranges
