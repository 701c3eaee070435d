(** The target machine model.

    The compiler parallelizes against an abstract many-core: identical
    processing elements (PEs) with a clock rate, a local memory, and
    per-word costs for reading kernel inputs and writing outputs (the
    read/write components of Figure 13). The paper leaves the concrete chip
    abstract; all results are shapes over these parameters. *)

type pe = {
  freq_hz : float;  (** Compute cycles per second. *)
  mem_words : int;  (** Local storage per PE, in data words. *)
  read_cycles_per_word : float;
      (** Cycles spent moving one word from a channel into the kernel. *)
  write_cycles_per_word : float;
      (** Cycles spent moving one word from the kernel to a channel. *)
  switch_cycles : float;
      (** Context-switch cost charged when a time-multiplexed PE fires a
          different kernel than it fired last (0 on dedicated PEs and by
          default). *)
}

type t = {
  pe : pe;
  max_pes : int;  (** PEs available on the chip. *)
  target_utilization : float;
      (** Headroom factor in (0,1]: parallelization provisions kernels so
          each PE is loaded to at most this fraction, absorbing scheduling
          jitter. *)
  multiplex_headroom : float;
      (** Extra margin in (0,1] applied when time-multiplexing kernels onto
          one PE (Section V): merged kernels suffer each other's service
          latency, so the greedy mapper fills cores only to
          [target_utilization × multiplex_headroom]. *)
}

val v :
  ?max_pes:int -> ?target_utilization:float -> ?multiplex_headroom:float ->
  pe -> t
(** Validates ranges; fails with {!Bp_util.Err.Invalid_parameterization}. *)

val pe_v :
  ?switch_cycles:float ->
  freq_hz:float ->
  mem_words:int ->
  read_cycles_per_word:float ->
  write_cycles_per_word:float ->
  unit ->
  pe

val cycle_time_s : pe -> float
(** Seconds per compute cycle. *)

val read_time_s : pe -> words:int -> float
(** Seconds to read [words] from channels. *)

val write_time_s : pe -> words:int -> float
(** Seconds to write [words] to channels. *)

val usable_cycles_per_s : t -> float
(** [freq * target_utilization] — what parallelization budgets per PE. *)

(** Named configurations used by the experiments. *)

val default : t
(** A mid-size PE: 1 MHz, 4096 words, 0.15 cycles/word each way, 64 PEs,
    90% target utilization. Deliberately slow clocks keep the simulated
    workloads small while forcing realistic parallelization degrees. *)

val small_memory : t
(** Like {!default} but with only 320 words per PE — forces buffer
    splitting (Figure 10) on modest frames. *)

val fast_pe : t
(** A 4 MHz PE — kernels rarely need replication; exposes the multiplexing
    win (Section V). *)

val by_name : string -> t
(** ["default" | "small-memory" | "fast-pe"]; fails with
    {!Bp_util.Err.Unsupported} otherwise. *)

val names : string list
