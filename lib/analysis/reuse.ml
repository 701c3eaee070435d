open Bp_geometry

type t = {
  elements_per_fire : int;
  new_per_fire : int;
  reused_per_fire : int;
  reuse_fraction : float;
  column_reuse_per_fire : int;
}

let of_window (w : Window.t) =
  let elements_per_fire = Window.elements_consumed_per_fire w in
  let new_per_fire = Window.new_elements_per_fire w in
  let reused_per_fire = elements_per_fire - new_per_fire in
  let column_reuse_per_fire =
    max 0 (w.Window.size.Size.w - w.Window.step.Step.sx) * w.Window.size.Size.h
  in
  {
    elements_per_fire;
    new_per_fire;
    reused_per_fire;
    reuse_fraction = Window.reuse_fraction w;
    column_reuse_per_fire;
  }
