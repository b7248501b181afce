(** Shared plan caches: compiled objective tapes and warm-start seeds.

    The planner answers heavy, highly repetitive traffic: many clients
    submit the same MDG shapes under the same (or nearby) cost
    constants and machine sizes.  Two caches amortise that repetition:

    - the {b tape cache} maps [(structural hash, cost fingerprint,
      procs)] to the objective's instruction tape
      ({!Allocation.objective_tape} under {!Convex.Solver.compile_tape}),
      so repeated requests skip the tape emission;
    - the {b warm-start cache} maps the same key (exactly) and its
      shape projection [(structural hash, procs)] (approximately) to
      the last optimum found.  An exact duplicate is answered with the
      cached {!Allocation.result} outright — the solver is not
      re-entered at all — while a near-duplicate (same shape,
      perturbed constants) re-solves seeded at the cached optimum and
      skips the smoothing anneal when the warm-start probe allows it
      ({!Convex.Solver.solve}).  A known shape requested at a {e new}
      machine size seeds from the stored optimum with the nearest
      procs ratio, rescaled by [log(p'/p)] in the log-space
      allocation and clamped into the new box — a directional guess
      the solver's warm-start probe then vets, which turns per-[procs]
      sweeps over one program into shape hits instead of cold misses.

    Keys use {!Mdg.Graph.structural_hash} and
    {!Costmodel.Params.fingerprint}; because the structural hash
    ignores node labels, requests for the same computation under
    different names share entries.

    A third structure, the {b in-flight table}, coalesces concurrent
    identical misses: while one domain is solving a key, every other
    request for the same key blocks on the flight and shares the one
    result instead of solving again (see {!coalesce}).

    All operations are thread-safe (one internal mutex; compilation
    itself happens outside the lock).  Entry counts are bounded;
    insertion beyond the bound evicts the {e least recently used}
    entry ({!Lru}), so a hot working set survives a burst of one-off
    requests that a FIFO would have let push it out.  Typically one
    cache is created per server (or per benchmark sweep) and passed to
    {!Pipeline.plan} via {!Pipeline.config.cache}. *)

type t

type key = { graph_hash : int64; fingerprint : int64; procs : int }

type stats = {
  tape_hits : int;
  tape_misses : int;
  warm_hits : int;       (** exact-key warm hits *)
  warm_shape_hits : int; (** same-shape, same-procs, different-fingerprint hits *)
  warm_procs_hits : int; (** same-shape, different-procs rescaled hits *)
  warm_misses : int;
  coalesce_leaders : int; (** in-flight solves led (one per coalesced group) *)
  coalesce_hits : int;    (** requests served by another request's solve *)
  tape_entries : int;
  warm_entries : int;
}

val create : ?max_tapes:int -> ?max_warm:int -> ?max_shapes:int -> unit -> t
(** [max_tapes] (default 64) bounds compiled-tape entries; [max_warm]
    (default 512) bounds exact warm-start entries; [max_shapes]
    (default 256) bounds the graph shapes carrying per-[procs] seed
    vectors (each shape holds at most a handful of machine sizes). *)

val tape :
  t -> key -> compile:(unit -> Convex.Solver.compiled) ->
  Convex.Solver.compiled * [ `Hit | `Miss ]
(** The compiled tape for [key], compiling (outside the lock) and
    inserting on a miss.  The returned value owns a private workspace
    ({!Convex.Solver.share_tape}) and may be used freely on the
    calling domain.  Two domains missing the same key concurrently
    both compile; one insertion wins — harmless, just redundant
    work. *)

type warm_hit =
  | Exact of Allocation.result
      (** The exact [(hash, fingerprint, procs)] entry: the previous
          solve's full result, reusable verbatim (the solver is
          deterministic, so re-solving the identical problem could only
          reproduce it).  Arrays are private copies. *)
  | Seed of Numeric.Vec.t
      (** The most recent log-space optimum of the same [(hash, procs)]
          shape under any fingerprint — or, when the shape has only
          been solved at other machine sizes, the nearest-procs
          optimum rescaled by [log(p'/p)] and clamped into the new
          box.  A starting point only. *)

val warm : t -> key -> warm_hit option

val tape_cached : t -> key -> bool
(** Whether a compiled tape for [key] is resident, without
    materialising a workspace; counts as a tape hit when it is.  Used
    by the exact-duplicate fast path, which answers without evaluating
    the objective. *)

val store_warm : t -> key -> Allocation.result -> unit
(** Record a completed solve under the exact key, and its optimum as
    the shape's most-recent seed. *)

(** {2 Singleflight coalescing}

    Under concurrent load, N identical cache misses arriving together
    would cost N cold solves of the same convex program.  {!coalesce}
    collapses them: the first caller for a key becomes the {e leader}
    and runs [solve] (outside the cache lock); every caller that
    arrives while that solve is in flight blocks and receives the
    leader's result (a private copy) without entering the solver.  If
    the leader's [solve] raises, the exception is re-raised in {e
    every} waiter — a failed solve wakes its followers with the error,
    it never hangs them — and nothing is published, so a later request
    retries from scratch.

    Coalescing is only sound when the key fully determines the result:
    callers whose solve depends on extra inputs (an explicit [x0]
    seed) must bypass it. *)

val coalesce :
  t ->
  key ->
  solve:(unit -> Allocation.result) ->
  Allocation.result * [ `Leader | `Follower ]
(** [`Leader] ran [solve] itself; [`Follower] was served by a
    concurrent leader's solve.  Either way the arrays in the returned
    result are private to the caller. *)

val waiting : t -> key -> int
(** Number of followers currently blocked on [key]'s in-flight solve
    (0 when none is in flight) — introspection for tests and
    telemetry. *)

val stats : t -> stats

val clear : t -> unit
(** Drop every entry and zero the counters. *)
