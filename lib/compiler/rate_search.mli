(** The inverse throughput query.

    The paper positions itself against StreamIt (Section VI): StreamIt uses
    a fixed number of processors to reach the highest possible rate, while
    block-parallel compilation finds the minimum number of processors for a
    *given* rate. This module answers StreamIt's question with the
    block-parallel machinery: binary-search over input rates, recompiling
    the application ({!Pipeline.compile}) at each probe, until the
    highest rate whose compiled form fits the processor budget (and
    passes the static schedulability check) is found.

    The application is supplied as a builder indexed by rate, since the
    graph must be rebuilt per probe (compilation mutates it). *)

type probe = {
  rate_hz : float;
  pes : int;  (** Processors under the chosen mapping. *)
  fits : bool;
}

type result = {
  best_rate_hz : float;  (** 0.0 when even the lowest probe fails. *)
  best_pes : int;
  probes : probe list;  (** Every rate tried, in probe order. *)
}

val search :
  ?iterations:int ->
  ?greedy:bool ->
  ?align_policy:Bp_transform.Align.policy ->
  ?pool:Sweep.pool ->
  machine:Bp_machine.Machine.t ->
  max_pes:int ->
  (rate_hz:float -> Bp_graph.Graph.t) ->
  result
(** [search ~machine ~max_pes build] binary-searches rates in
    [\[1, 1000\]] Hz (defaults: 12 iterations, greedy mapping).
    A probe fits when {!Pipeline.compile} succeeds, the static check
    passes, and the mapping needs at most [max_pes] processors
    ({!Plan.processors_needed}). Compile failures
    ({!Bp_util.Err.Not_schedulable}, {!Bp_util.Err.Resource_exhausted})
    are treated as non-fitting probes, not errors. [align_policy]
    (default: trim) is the alignment repair policy each probe compiles
    with, as in {!Pipeline.compile}.

    [pool] shards probe compilations across a {!Sweep} domain pool
    ([bpc rate-search -j N]) by {e speculative bisection}: each round
    batch-evaluates the breadth-first frontier of midpoints the search
    could visit next (up to one per domain) and memoizes them by exact
    rate, then the strictly sequential bisection replays over the memo.
    Speculation changes what is computed, never what is recorded:
    [probes] and the best rate are bit-identical to the serial search
    for every [-j] (docs/PARALLELISM.md §Determinism). The builder runs
    on worker domains, so it must build a fresh, task-local graph —
    which the rebuild-per-probe rule above already requires. *)
