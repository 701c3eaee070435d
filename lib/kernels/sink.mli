(** Application outputs.

    A sink drains its input stream and records everything it received into a
    collector the test or application code holds on to, which is how
    functional results leave the simulation. Frame-completion *times* are
    recorded by the simulator itself (see [Bp_sim]); the collector records
    content and order. *)

type collector
(** Accumulates what one sink received. A collector is reset each time a
    fresh behaviour is instantiated (i.e. at the start of each simulation
    run). *)

val collector : unit -> collector
(** A fresh, empty collector. *)

val chunks : collector -> Bp_image.Image.t list
(** All data chunks in arrival order. *)

val chunks_between_frames : collector -> Bp_image.Image.t list list
(** The recorded chunks grouped by frame: the end-of-frame tokens the sink
    received act as separators. A trailing group of chunks after the last
    EOF is included only when non-empty. *)

val spec :
  ?class_name:string ->
  window:Bp_geometry.Window.t ->
  collector ->
  unit ->
  Bp_kernel.Spec.t
(** [spec ~window c ()] is a sink whose ["in"] port expects [window]-shaped
    chunks. Each fresh behaviour instance resets [c] before recording. *)
