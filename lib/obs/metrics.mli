(** A structured metrics registry: counters, gauges, histograms.

    The aggregation half of the observability layer. Names are flat,
    dot-separated strings; the normative name set produced by a simulation
    run is documented in docs/OBSERVABILITY.md ([kernel.<name>.fires],
    [chan.<id>.pushes], [pe.<p>.busy_s], ...). A name is bound to one kind
    on first use; touching it with a different kind raises
    [Invalid_argument] — a misspelled instrumentation site should fail
    loudly, not fork a second series.

    - A {b counter} is a monotonically increasing integer (events).
    - A {b gauge} is a float with last-write ([set]), high-water
      ([set_max]) or accumulate ([add]) semantics (seconds, depths).
    - A {b histogram} is a distribution summary: count/sum/min/max plus
      counts in fixed decade buckets (default bounds suit durations in
      seconds, 1 ns .. 10 s).

    The registry is not thread-safe; the simulator is single-threaded. *)

type t

val create : unit -> t

(** {1 Recording} *)

val incr : t -> ?by:int -> string -> unit
(** Bump a counter ([by] defaults to 1; must be >= 0). *)

val set : t -> string -> float -> unit
(** Set a gauge to a value. *)

val set_max : t -> string -> float -> unit
(** Raise a gauge to [max current value] — high-water marks. *)

val add : t -> string -> float -> unit
(** Accumulate into a gauge — time totals. *)

val observe : t -> string -> float -> unit
(** Record one sample into a histogram. *)

val set_histogram :
  t ->
  string ->
  count:int ->
  sum:float ->
  min:float ->
  max:float ->
  buckets:int array ->
  unit
(** Overwrite a histogram's whole summary, for a recorder that kept its
    own. Writing what {!observe} would have accumulated (the sum added
    in sample order from [0.], [min] from [infinity], [max] from
    [neg_infinity], [buckets] as {!bucket_bounds} files the samples)
    leaves the registry exactly as the observations would. [buckets]
    must have [Array.length bucket_bounds + 1] entries. *)

(** {1 Reading} *)

val counter : t -> string -> int
(** Current counter value; 0 when the name was never incremented. *)

val gauge : t -> string -> float option

type hist_stats = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_mean : float;
}

val histogram : t -> string -> hist_stats option

val bucket_bounds : float array
(** Upper bounds (inclusive, seconds) of the histogram decade buckets; a
    final implicit overflow bucket catches everything above the last
    bound. *)

(** {1 GC and pool sampling}

    The allocation half of the performance contract (docs/PERFORMANCE.md
    §"The data plane"): sample the OCaml GC around a simulation run and
    fold the deltas — plus the run's chunk-pool counters — into the
    registry, so allocation pressure is exported next to throughput. *)

type gc_snapshot = {
  gc_minor_words : float;
  gc_major_words : float;
  gc_promoted_words : float;
  gc_minor_collections : int;
  gc_major_collections : int;
}
(** A point-in-time reading of [Gc.quick_stat] (cheap; no heap walk),
    except [gc_minor_words], read with [Gc.minor_words] so that deltas
    count words exactly: [quick_stat]'s counter advances only at minor
    collections. All counters are the calling domain's. *)

val gc_snapshot : unit -> gc_snapshot

val record_gc :
  t -> ?prefix:string -> before:gc_snapshot -> after:gc_snapshot -> unit ->
  unit
(** Record the deltas between two snapshots: gauges
    [gc.minor_words], [gc.major_words], [gc.promoted_words],
    [gc.allocated_words] (minor + major − promoted); counters [gc.minor_collections],
    [gc.major_collections]. [prefix] is prepended verbatim to every
    name. *)

val record_pool :
  t ->
  ?prefix:string ->
  hits:int ->
  misses:int ->
  releases:int ->
  live:int ->
  unit ->
  unit
(** Record chunk-pool counters (see {!Bp_image.Pool.stats}, passed as
    plain ints to keep this module dependency-light): counters
    [pool.hits], [pool.misses], [pool.releases]; gauges [pool.live] and
    [pool.hit_rate]. *)

val record_domain :
  t ->
  ?prefix:string ->
  domain:int ->
  tasks:int ->
  wall_s:float ->
  steals:int ->
  unit ->
  unit
(** Record one worker domain's sweep telemetry (see
    docs/PARALLELISM.md §Observability; the numbers come from
    [Sweep.report]): counters [sim.domain.<i>.tasks] and
    [sim.domain.<i>.steal_count], gauge [sim.domain.<i>.wall_s].
    [prefix] is prepended verbatim to every name. Call once per domain
    after a sweep. *)

val names : t -> string list
(** All registered names, sorted — the iteration order of {!to_json} and
    {!pp}, so output is deterministic. *)

(** {1 Export} *)

val to_json : t -> Json.t
(** The metrics snapshot schema of docs/OBSERVABILITY.md:
    [{"metrics": [{"name": ..., "kind": "counter"|"gauge"|"histogram", ...}]}]
    with entries sorted by name. Counters and gauges carry ["value"];
    histograms carry ["count"], ["sum"], ["min"], ["max"], ["mean"] and
    ["buckets"] (a list of [{"le": bound, "count": n}] with a final
    [{"le": null}] overflow entry). *)

val pp : Format.formatter -> t -> unit
(** A plain-text table of every metric, sorted by name. *)
