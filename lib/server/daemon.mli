(** The plan server: PARADIGM's planner as a long-running concurrent
    service.

    A server owns a TCP listening socket and a fixed pool of worker
    domains (OCaml 5 [Domain]s).  An acceptor domain hands accepted
    connections to the pool through a {e bounded} queue: at most
    [workers + max_pending] connections are in the system at once, and
    a connection beyond that is shed with a fast typed [overloaded]
    reply (plus retry hint) instead of queueing forever — overload
    degrades into explicit, retryable errors rather than unbounded
    latency.  Each worker speaks the newline-delimited JSON protocol
    ({!Protocol}) for the lifetime of its connection, answering every
    request line with exactly one reply line.  Malformed input
    produces an [Error_reply], never a crash or a dropped
    connection.  A request line longer than {!max_line_bytes} is the
    one malformed input that also closes the connection, after a typed
    [request_too_large] reply.

    All workers share one {!Core.Plan_cache} through the
    {!Core.Pipeline.config} they plan with, so its result cache warms
    up across clients: the steady state for a repetitive request mix
    is an exact warm-cache hit, answered with the stored result
    without entering the solver ([solve_skipped] in
    {!Core.Pipeline.cache_outcome}).  A worker decodes a plan line's
    envelope ({!Protocol.decode_envelope}) and looks its MDG text up
    before parsing it, so an exact hit is answered from the cache
    entry alone: no graph parse and no PSA ({!answer_plan}).

    {!stop} is graceful: the listener closes immediately, workers
    finish the request they are executing and any further requests
    already readable on their connection, idle connections close
    within the poll interval, and [stop] returns only after every
    domain has joined.

    All workers also coalesce concurrent identical cache misses
    through the shared cache's singleflight table
    ({!Core.Plan_cache.coalesce}): N clients hammering one uncached
    key cost one solve, not N.

    Telemetry: the configured sink is wrapped in {!Obs.Sink.locking}
    and receives ["server.connection"] spans, ["server.request"]
    spans (per request line, covering decode → plan → reply), a
    ["server.requests"] counter (connections admitted + queue depth)
    and a ["server.queue"] counter (shed total + depth at shed time),
    in addition to the pipeline's own spans and cache counters
    (["pipeline.cache"] now carries a [coalesced] flag).  The [stats]
    op and {!server_stats} expose queue depth, shed counts and per-op
    latency histograms, timed on {!Obs.now}'s monotonic clock like the
    spans. *)

type options = {
  addr : string;  (** listen address, default ["127.0.0.1"] *)
  port : int;  (** TCP port; [0] picks an ephemeral port (see {!port}) *)
  workers : int;  (** worker-domain pool size *)
  backlog : int;  (** listen backlog *)
  max_pending : int;
      (** bound on admitted connections {e waiting} for a worker.  A
          connection arriving when [workers + max_pending] connections
          are already in the system (being served or waiting) is {b
          shed}: it is answered one {!Protocol.overloaded_reply} line
          (typed [overloaded] error with a [retry_after_ms] hint) and
          closed instead of queueing without bound.  [0] disables
          waiting entirely — admit only when a worker is free. *)
  config : Core.Pipeline.config;
      (** base planning configuration; if it carries no cache the
          server installs a fresh shared {!Core.Plan_cache} *)
  default_params : Costmodel.Params.t Lazy.t;
      (** cost model used when a request sends no ["params"] *)
}

val default_options : options
(** Loopback, ephemeral port, 4 workers, 64 pending slots, default
    pipeline config (a fresh cache is installed), CM-5 paper
    constants. *)

type t

val max_line_bytes : int
(** The longest request line a worker reads: 16 MiB.  A longer line is
    answered with one typed [request_too_large] error and the
    connection is closed; no over-long line reaches the decoder. *)

val start : ?options:options -> unit -> t
(** Bind, listen and spawn the acceptor and worker domains.  Raises
    [Unix.Unix_error] if the address cannot be bound.

    Also process-wide: ignores SIGPIPE and raises the GC's
    [space_overhead] to at least 400 (a larger setting is kept). *)

val port : t -> int
(** The bound TCP port — the actual one when [options.port = 0]. *)

val cache : t -> Core.Plan_cache.t
(** The shared plan cache (the configured one, or the installed
    fresh one). *)

val stats : t -> Core.Plan_cache.stats

val server_stats : t -> Protocol.server_stats
(** Serving-side counters: current queue depth, shed/accepted/served
    totals and the per-op latency histograms (the same snapshot the
    [stats] op returns in its ["server"] section). *)

val requests_served : t -> int
(** Total request lines answered (including error replies). *)

val connections_accepted : t -> int
(** Connections admitted to the worker queue (shed ones excluded). *)

val connections_shed : t -> int
(** Connections refused with the [overloaded] reply. *)

val queue_depth : t -> int
(** Admitted connections currently waiting for a worker. *)

val answer_plan :
  Core.Pipeline.config ->
  default_params:Costmodel.Params.t Lazy.t ->
  id:Json.t ->
  Protocol.plan_envelope ->
  (Json.t, string) result
(** The reply a worker sends to one plan line, planned under [config]
    (which carries the shared cache) with the line's [pb] override and
    [default_params] when it sends no ["params"].  An exact hit is
    answered from the cache entry alone
    ({!Core.Pipeline.exact_hit}): the MDG text is not parsed and the
    PSA does not run.  Anything else parses the text and runs
    {!Core.Pipeline.plan} keyed on it.  [Error] is the protocol-error
    message of a text that does not parse. *)

val stop : t -> unit
(** Graceful shutdown as described above.  Idempotent. *)
