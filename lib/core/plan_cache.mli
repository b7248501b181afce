(** Shared plan cache: solved allocations.

    The planner answers heavy, highly repetitive traffic: many clients
    submit the same MDG shapes under the same cost constants and
    machine sizes.  Under the paper's formulation the optimum is a pure
    function of the MDG, the cost constants and the machine size, so
    one result cache amortises that repetition.  It maps a request's
    {!key} to the result of the one cold solve of that key: an exact
    duplicate is answered with the cached {!Allocation.result} outright
    — the solver is not re-entered and no objective tape is emitted.
    Every other request is solved cold, so a plan served through the
    cache is the plan {!Pipeline.plan} computes without one, whatever
    the cache held before.

    A key is the request's exact bytes ({!Mdg.Graph.add_key},
    {!Costmodel.Params.add_key} and [procs]), compared in full; a hash
    of it only picks the bucket.  Every plan solves with
    {!Convex.Solver.default_options}, so two requests share an entry
    exactly when they pose the same convex program, and a crafted
    digest collision cannot serve one request another's plan.  The
    graph key ignores node labels, so requests for the same computation
    under different names share entries.  The cache stores the key
    string, never the decoded graph.

    A second structure, the {b in-flight table}, coalesces concurrent
    identical misses: while one domain is solving a key, every other
    request for the same key blocks on the flight and shares the one
    result instead of solving again (see {!coalesce}).

    The cache holds those two tables and nothing else: no compiled tape
    outlives the solve that emitted it.  All operations are
    thread-safe (one internal mutex; solves happen outside the lock).
    The result table holds at most {!capacity} entries; insertion
    beyond that evicts the {e least recently used} entry ({!Lru}), so
    a hot working set survives a burst of one-off requests that a FIFO
    would have let push it out.  Typically one cache is created per
    server (or per benchmark sweep) and passed to {!Pipeline.plan} via
    {!Pipeline.config.cache}. *)

type t

type key = private string

val key : Costmodel.Params.t -> Mdg.Graph.t -> procs:int -> key
(** The exact key of planning the (normalised) graph on [procs]
    processors under the given constants. *)

type stats = {
  tape_hits : int;
      (** equal to [warm_hits]: only an exact hit is served without
          emitting a tape.  Kept, with [tape_misses], for the
          benchmark that reads both *)
  tape_misses : int;
      (** equal to [coalesce_leaders]: every tape is emitted inside a
          coalesce leader's solve *)
  warm_hits : int;       (** exact-key warm hits *)
  warm_shape_hits : int;
      (** always 0: the cache keeps no per-shape seeds.  Kept, with
          [warm_procs_hits], for the benchmark that reads both *)
  warm_procs_hits : int;  (** always 0, as [warm_shape_hits] *)
  warm_misses : int;
  coalesce_leaders : int; (** in-flight solves led (one per coalesced group) *)
  coalesce_hits : int;    (** requests served by another request's solve *)
  warm_entries : int;
}

val capacity : int
(** The most entries the result table holds: 512.  Storing one more
    evicts the least recently used entry. *)

val create : unit -> t

val warm : t -> key -> Allocation.result option
(** The result stored under exactly [key], if any: the previous solve's
    full result, reusable verbatim (the solver is deterministic, so
    re-solving the identical problem could only reproduce it).  Arrays
    are private copies. *)

val store_warm : t -> key -> Allocation.result -> unit
(** Record a completed solve under [key]. *)

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

    Coalescing is only sound when the key fully determines the result,
    as it does for every {!Pipeline.plan} request. *)

val coalesce :
  t ->
  key ->
  solve:(unit -> Allocation.result) ->
  Allocation.result * [ `Leader | `Follower ]
(** [`Leader] ran [solve] itself; [`Follower] was served by a
    concurrent leader's solve, or by the exact entry a leader stored
    after the caller's {!warm} miss.  Either way the arrays in the
    returned result are private to the caller. *)

val waiting : t -> key -> int
(** Number of followers currently blocked on [key]'s in-flight solve
    (0 when none is in flight) — introspection for tests and
    telemetry. *)

val stats : t -> stats
