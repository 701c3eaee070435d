open Bp_util
module Graph = Bp_graph.Graph
module Dataflow = Bp_analysis.Dataflow
module Stream = Bp_analysis.Stream
module Mapping = Bp_sim.Mapping

type placement = {
  mesh_side : int;
  tile_of : int -> int * int;
  cost : float;
}

(* The annealing schedule (see placement.mli). *)
let anneal_seed = 1
let initial_temperature = 100.
let cooling = 0.92
let sweeps = 60
let moves_per_sweep = 200

let mesh_side_for procs =
  let rec search side = if side * side >= procs then side else search (side + 1) in
  search 1

(* Words per frame crossing each processor pair, with off-chip traffic
   pinned to the virtual processor [-1] at tile (0,0). *)
let traffic an mapping =
  let g = Dataflow.graph an in
  List.filter_map
    (fun (c : Graph.channel) ->
      let s = Dataflow.stream_of an c.Graph.chan_id in
      if s.Stream.constant then None
      else
        let proc_of id =
          match Mapping.processor_of mapping id with
          | Some p -> p
          | None -> -1
        in
        let a = proc_of c.Graph.src.Graph.node
        and b = proc_of c.Graph.dst.Graph.node in
        if a = b then None else Some (a, b, Stream.words_per_frame s))
    (Graph.channels g)

let manhattan (x0, y0) (x1, y1) = abs (x0 - x1) + abs (y0 - y1)

let cost_of_tiles traffic tile_of =
  List.fold_left
    (fun acc (a, b, words) ->
      let ta = if a < 0 then (0, 0) else tile_of a in
      let tb = if b < 0 then (0, 0) else tile_of b in
      acc +. (words *. float_of_int (manhattan ta tb)))
    0. traffic

let communication_cost an mapping tile_of =
  cost_of_tiles (traffic an mapping) tile_of

let tiles_array procs side rng =
  (* Processors take the first [procs] tiles of a shuffled tile list, so
     random placements cover the mesh uniformly. *)
  let all =
    Array.init (side * side) (fun i -> (i mod side, i / side))
  in
  Prng.shuffle rng all;
  Array.sub all 0 procs

let random_placement ~seed an mapping =
  let procs = Mapping.processors mapping in
  let side = mesh_side_for procs in
  let rng = Prng.create seed in
  let tiles = tiles_array procs side rng in
  let tile_of p = tiles.(p) in
  {
    mesh_side = side;
    tile_of;
    cost = communication_cost an mapping tile_of;
  }

let place an mapping =
  let procs = Mapping.processors mapping in
  let side = mesh_side_for procs in
  let rng = Prng.create anneal_seed in
  let tiles = tiles_array procs side rng in
  let tr = traffic an mapping in
  (* Pre-index traffic per processor for incremental cost evaluation. *)
  let touching = Array.make procs [] in
  List.iter
    (fun (a, b, w) ->
      if a >= 0 then touching.(a) <- (a, b, w) :: touching.(a);
      if b >= 0 && b <> a then touching.(b) <- (a, b, w) :: touching.(b))
    tr;
  let tile_of p = tiles.(p) in
  let local_cost p =
    List.fold_left
      (fun acc (a, b, w) ->
        let ta = if a < 0 then (0, 0) else tile_of a in
        let tb = if b < 0 then (0, 0) else tile_of b in
        acc +. (w *. float_of_int (manhattan ta tb)))
      0. touching.(p)
  in
  let cost = ref (cost_of_tiles tr tile_of) in
  let temp = ref initial_temperature in
  (* Candidate moves swap two processors' tiles (or move one processor to a
     free tile when the mesh is larger than the processor count). *)
  let free_tiles =
    let used = Hashtbl.create 16 in
    Array.iter (fun t -> Hashtbl.replace used t ()) tiles;
    let free = ref [] in
    for i = 0 to (side * side) - 1 do
      let t = (i mod side, i / side) in
      if not (Hashtbl.mem used t) then free := t :: !free
    done;
    Array.of_list !free
  in
  for _sweep = 1 to sweeps do
    for _move = 1 to moves_per_sweep do
      if procs >= 2 then begin
        let use_free =
          Array.length free_tiles > 0 && Prng.bool rng
        in
        if use_free then begin
          let p = Prng.int rng procs in
          let fi = Prng.int rng (Array.length free_tiles) in
          let before = local_cost p in
          let old = tiles.(p) in
          tiles.(p) <- free_tiles.(fi);
          let delta = local_cost p -. before in
          if delta <= 0. || Prng.float rng 1. < exp (-.delta /. !temp) then begin
            free_tiles.(fi) <- old;
            cost := !cost +. delta
          end
          else tiles.(p) <- old
        end
        else begin
          let p = Prng.int rng procs in
          let q = Prng.int rng procs in
          if p <> q then begin
            let before = local_cost p +. local_cost q in
            let tp = tiles.(p) and tq = tiles.(q) in
            tiles.(p) <- tq;
            tiles.(q) <- tp;
            let delta = local_cost p +. local_cost q -. before in
            if delta <= 0. || Prng.float rng 1. < exp (-.delta /. !temp) then
              cost := !cost +. delta
            else begin
              tiles.(p) <- tp;
              tiles.(q) <- tq
            end
          end
        end
      end
    done;
    temp := !temp *. cooling
  done;
  (* Recompute exactly to wash out float drift from incremental updates. *)
  let final = cost_of_tiles tr tile_of in
  if side * side < procs then
    Err.graphf "placement mesh %dx%d cannot hold %d processors" side side
      procs;
  if not (final >= 0.) then
    Err.graphf "placement cost is not a non-negative number";
  { mesh_side = side; tile_of; cost = final }
