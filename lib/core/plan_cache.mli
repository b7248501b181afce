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

    A key is the request's MDG text ({!Mdg.Serialize}, before
    normalisation), {!Costmodel.Params.add_key} and [procs], compared
    in full; a hash of it only picks the bucket.  Every plan solves
    with {!Convex.Solver.default_options}, so two requests share an
    entry exactly when they send the same text under the same
    constants and machine size, and a crafted digest collision cannot
    serve one request another's plan.  Node labels are part of the
    text, so the same computation under other names is another key.
    The cache stores the key, never the decoded graph, and entries
    with equal texts share one physical string ({!texts}): an MDG
    cached under several constant sets costs its text once.

    Each entry also keeps the fields a plan reply takes from the PSA
    ({!reply_fields}), with the PSA options that produced them, so the
    plan server answers an exact hit from the entry alone: no graph
    parse, no PSA ({!warm_reply}).  Entries are never mutated once
    stored.

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

type key

val key : Costmodel.Params.t -> text:string -> procs:int -> key
(** The exact key of planning the MDG [text] on [procs] processors
    under the given constants.  [text] is the {!Mdg.Serialize} text as
    a client sent it, or {!Mdg.Serialize.to_string} of a graph before
    normalisation: the two agree on encoder output. *)

type reply_fields = {
  psa_options : Psa.options;  (** the options the PSA ran with *)
  t_psa : float;
  makespan : float;  (** of the schedule *)
  pb : int;
  rounded_alloc : int array;
}
(** What a plan reply takes from the PSA, about 0.7 kB for a depth-3
    MDG; a whole {!Psa.result} with its schedule is 12.7 kB. *)

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
    re-solving the identical problem could only reproduce it).  Counts
    one warm hit or miss.  Arrays are private copies. *)

val warm_reply :
  t ->
  key ->
  psa_options:Psa.options ->
  (Allocation.result * reply_fields) option
(** The entry stored under exactly [key], when it holds reply fields
    scheduled under [psa_options]: counted as one warm hit, and marked
    most recently used, as {!warm} does.  Anything else gives [None]
    and counts nothing, for the caller to go on with {!warm} (through
    {!Pipeline.plan}).  The arrays are the stored ones, shared with
    every other reader: never mutate them. *)

val store_warm : t -> key -> ?reply:reply_fields -> Allocation.result -> unit
(** Record a completed solve under [key], with the reply fields of the
    PSA run on it when it ran (a failed PSA gives none).  The cache
    keeps private copies of the arrays. *)

val texts : t -> string list
(** The MDG text of every stored entry, most recently used first.
    Equal texts are one physical string. *)

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
