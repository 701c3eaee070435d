(** Size-keyed free-list pool of image chunks.

    The paper's execution model fixes every chunk extent at compile time
    (per-method memory words, Section III), so a steady-state simulation
    cycles through a small set of extents forever. The pool exploits that:
    [release]d images are kept on a per-extent free list and handed back by
    [acquire] instead of allocating, which removes the minor-GC pressure
    that otherwise rate-limits the simulator's data plane.

    Ownership protocol (see docs/PERFORMANCE.md §The data plane): every
    chunk has exactly one owner at any time; acquiring or popping a chunk
    makes you the owner, pushing it onward transfers ownership, and an
    owner that keeps nothing must [release]. Double-release is a protocol
    violation the pool cannot detect — the runtime avoids it structurally
    (move semantics, no sharing).

    Acquired buffers are always all-zero, whether recycled or fresh, so a
    pooled execution is bit-identical to an allocation-naive one. *)

type t
(** A pool. Not domain-safe: one owner domain at a time. A simulation
    run touches its pool from a single domain, and sharded sweeps give
    every worker domain its own pool instance, created on the worker
    and never lent across domains (the ownership rule is normative in
    docs/PARALLELISM.md §Pool ownership). *)

val create : unit -> t
(** An empty pool with zeroed counters. *)

val acquire : t -> Bp_geometry.Size.t -> Image.t
(** [acquire t s] is an all-zero image of extent [s]: a recycled buffer
    when the free list for [s] is non-empty (a {e hit}), freshly allocated
    otherwise (a {e miss}). *)

val release : t -> Image.t -> unit
(** [release t img] returns [img] to the free list for its extent. The
    caller must not touch [img] afterwards. Releasing an image the pool
    never handed out is allowed (it is adopted) but skews [live]. *)

type stats = {
  hits : int;  (** acquires served from a free list *)
  misses : int;  (** acquires that had to allocate *)
  releases : int;  (** chunks returned *)
  live : int;  (** acquires minus releases — chunks currently owned out *)
}

val stats : t -> stats

val check_no_live_leaks : t -> unit
(** Debug assertion: raises [Invalid_argument] unless [live = 0], i.e.
    every acquired chunk has been released. Only meaningful in controlled
    tests where nothing legitimately retains chunks (sinks in a real
    simulation do, by design). *)
