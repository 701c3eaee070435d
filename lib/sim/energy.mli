(** First-order energy accounting.

    The paper motivates mapping and placement decisions partly by energy
    ("increasing the number of kernels beyond what is required ... may allow
    a more optimal placement, resulting in a lower overall energy
    consumption", Section IV-D). This module derives an energy estimate from
    a simulation result: active energy per compute cycle (10 pJ) and per
    channel word (5 pJ), and static (leakage/idle) power per powered
    processor (0.5 mW) — representative embedded-class constants; all
    results are ratios, so absolute values only set the scale. It makes
    the 1:1-vs-greedy trade quantitative: fewer processors means less
    static power for the same active work. *)

type breakdown = {
  compute_uj : float;
  channel_uj : float;
  static_uj : float;
  total_uj : float;
  pes : int;
  duration_s : float;
}

val of_result : machine:Bp_machine.Machine.t -> Sim.result -> breakdown
(** [of_result ~machine result] reconstructs cycles and words from the
    per-processor run/read/write times and prices them. *)

val pp : Format.formatter -> breakdown -> unit
