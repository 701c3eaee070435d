open Bp_geometry

type t = {
  chunk : Size.t;
  chunks_per_frame : float;
  grid : Size.t option;
  extent : Size.t;
  rate : Rate.t option;
  inset : Inset.t;
  origin : int option;
  constant : bool;
}

let constant_stream ~chunk =
  {
    chunk;
    chunks_per_frame = 0.;
    grid = None;
    extent = chunk;
    rate = None;
    inset = Inset.zero;
    origin = None;
    constant = true;
  }

let source_stream ~frame ~rate ~origin =
  {
    chunk = Size.one;
    chunks_per_frame = float_of_int (Size.area frame);
    grid = Some frame;
    extent = frame;
    rate = Some rate;
    inset = Inset.zero;
    origin = Some origin;
    constant = false;
  }

let words_per_frame t = t.chunks_per_frame *. float_of_int (Size.area t.chunk)

let same_rate streams =
  let rates = List.filter_map (fun s -> s.rate) (List.filter (fun s -> not s.constant) streams) in
  match rates with
  | [] -> None
  | r :: rest ->
    List.iter
      (fun r' ->
        if not (Rate.equal r r') then
          Bp_util.Err.ratef "input rates disagree: %s vs %s"
            (Rate.to_string r) (Rate.to_string r'))
      rest;
    Some r
