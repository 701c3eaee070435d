(** Data access and reuse statistics (Figure 5(b)).

    Derived entirely from a port's window parameterization plus the fixed
    scan-line ordering, as the paper describes: a 5×5 unit-step window reads
    25 elements per iteration of which 24 are reused in the steady state. *)

type t = {
  elements_per_fire : int;  (** Words read per iteration. *)
  new_per_fire : int;  (** Fresh words per iteration in 2-D steady state. *)
  reused_per_fire : int;
  reuse_fraction : float;  (** [reused / elements]. *)
  column_reuse_per_fire : int;
      (** Words reused from the previous iteration in the same row only
          ([width - step] columns × height) — the reuse available without
          row buffering. *)
}

val of_window : Bp_geometry.Window.t -> t
