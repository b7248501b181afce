(** End-to-end compilation pipeline: the composition the PARADIGM
    compiler performs (paper Section 1.2), behind a single
    request/result planning surface.

    {!plan} runs allocation (convex program) and scheduling (PSA) for
    a {!request} and returns [(plan, error) result] — every failure
    mode the pipeline can encounter (bad processor count, missing
    calibration, invalid inputs) is a typed {!error}, not an
    exception.  The same entry point serves both transports: the
    [paradigm] CLI subcommands and the socket plan server
    ({!Server.Daemon}) construct a request, call {!plan}, and render
    the outcome for their medium.  {!plan_exn} is the thin
    raise-on-error convenience for tests and scripts.

    [simulate] generates the MPMD program and executes it on the
    simulated machine; [simulate_spmd] runs the pure-data-parallel
    baseline the paper compares against.

    Every entry point is parameterised by a single {!config} record
    carrying the solver options, PSA options, the telemetry sink and
    (optionally) the shared {!Plan_cache} — build one from
    {!default_config} with the [with_*] combinators:

    {[
      let config =
        Pipeline.(
          default_config
          |> with_psa_options { Psa.default_options with pb = Psa.Fixed 8 }
          |> with_cache (Plan_cache.create ())
          |> with_obs (Obs.Recorder.sink recorder))
      in
      Pipeline.plan ~config (Pipeline.request params g ~procs)
    ]}

    With a cache configured, {!plan} keys the last result by the
    request's exact bytes ({!Plan_cache.key}: the normalised graph
    without labels, the cost constants and [procs]), compared in full.
    An exact duplicate is answered with the cached allocation outright
    (the solver is deterministic, so re-solving could only reproduce
    it) and emits no tape.  Anything else goes through
    {!Plan_cache.coalesce}, whose leader runs the same cold solve as an
    uncached plan and stores the result; concurrent identical requests
    wait for it instead of solving.  So a plan is the same with or
    without a cache, whatever the cache held before.

    The per-request outcome is reported in {!plan.cache}.

    With a live sink the pipeline emits ["pipeline.plan"] /
    ["pipeline.allocate"] / ["pipeline.schedule"] /
    ["pipeline.codegen"] / ["pipeline.simulate"] wall-clock spans on
    pid 0 plus a ["pipeline.cache"] counter per cached plan, the
    solver and PSA emit their convergence and rounding/placement
    events (see {!Convex.Solver.solve} and {!Psa.schedule}), and the
    machine simulator forwards its simulated-time event trace on pid 1
    (MPMD) / pid 2 (SPMD). *)

type config = {
  solver_options : Convex.Solver.options;
  psa_options : Psa.options;
  obs : Obs.t;
  cache : Plan_cache.t option;
      (** shared result cache; [None] (default) plans cold *)
}

val default_config : config
(** Default solver and PSA options, {!Obs.null} sink, no cache. *)

val with_solver_options : Convex.Solver.options -> config -> config

val with_psa_options : Psa.options -> config -> config

val with_obs : Obs.t -> config -> config

val with_cache : Plan_cache.t -> config -> config

(** {2 Requests and errors} *)

type request = {
  params : Costmodel.Params.t;
  graph : Mdg.Graph.t;
  procs : int;
}

val request : Costmodel.Params.t -> Mdg.Graph.t -> procs:int -> request

type error =
  | Invalid_procs of int
      (** processor count outside [1, ∞) *)
  | Missing_calibration of Mdg.Graph.kernel
      (** the parameter set has no Amdahl entry for a kernel used by
          the graph *)
  | Invalid_request of string
      (** structurally invalid input surfaced by a pipeline stage
          (e.g. a fixed PB that is not a power of two, an allocation
          outside the machine) *)

val error_to_string : error -> string
(** One-line human-readable rendering, stable enough for CLI output. *)

val error_kind : error -> string
(** Short machine-readable tag (["invalid_procs"],
    ["missing_calibration"], ["invalid_request"]) — the wire
    protocol's error kind. *)

exception Error of error
(** Raised by {!plan_exn}; CLI boundaries catch it and exit 1. *)

(** {2 Planning} *)

type cache_use =
  | Hit
  | Shape_hit
      (** never produced: the cache keeps no per-shape seeds.  Kept
          for the benchmark, which compiles against it *)
  | Miss
  | Off

type cache_outcome = {
  warm : cache_use;
  solve_skipped : bool;
      (** the allocation was served without entering the solver: an
          exact warm-cache hit, or a coalesced follower.  Every other
          request runs one cold solve *)
  coalesced : bool;
      (** this request was a cache miss served by a {e concurrent}
          identical request's solve ({!Plan_cache.coalesce}): it
          blocked on the in-flight solve and shares its result instead
          of solving again. *)
}

type plan = {
  graph : Mdg.Graph.t;
  params : Costmodel.Params.t;
  procs : int;
  allocation : Allocation.result;
  psa : Psa.result;
  config : config;  (** the configuration the plan was built with;
                        [simulate] reuses its sink *)
  cache : cache_outcome;
}

val plan : ?config:config -> request -> (plan, error) result
(** Normalises the graph if necessary, validates the request, solves
    the allocation problem (through the cache when configured) and
    runs the PSA. *)

val plan_exn :
  ?config:config ->
  Costmodel.Params.t ->
  Mdg.Graph.t ->
  procs:int ->
  plan
(** [plan] with the request inline, raising {!Error} on failure —
    for tests, benchmarks and scripts where an error is fatal
    anyway. *)

val phi : plan -> float
(** Φ: the convex program's optimal finish time. *)

val predicted_time : plan -> float
(** T_psa: the schedule's (model-)predicted program finish time. *)

val schedule : plan -> Schedule.t

(** {2 Simulation} *)

val simulate : Machine.Ground_truth.t -> plan -> Machine.Sim.result
(** Generate the MPMD program and execute it on the machine.  Uses the
    plan's configured sink for codegen/simulate spans and the machine
    event timeline. *)

val simulate_spmd :
  ?obs:Obs.t ->
  Machine.Ground_truth.t ->
  Mdg.Graph.t ->
  procs:int ->
  Machine.Sim.result
(** Run the SPMD baseline of the (normalised) graph. *)

val serial_time : Machine.Ground_truth.t -> Mdg.Graph.t -> float
(** Measured single-processor execution time: sum of kernel serial
    times, no communication.  The speedup baseline of Figure 8. *)

type comparison = {
  procs : int;
  serial : float;
  mpmd_time : float;
  spmd_time : float;
  mpmd_speedup : float;
  spmd_speedup : float;
  mpmd_efficiency : float;
  spmd_efficiency : float;
  predicted : float;   (** T_psa *)
  phi : float;
}

val comparison_of :
  procs:int ->
  serial:float ->
  predicted:float ->
  phi:float ->
  mpmd_time:float ->
  spmd_time:float ->
  comparison
(** Assemble a comparison from already-measured times (speedups and
    efficiencies are derived) — for callers that need the individual
    simulation results as well. *)

val compare_mpmd_spmd :
  ?config:config ->
  Machine.Ground_truth.t ->
  request ->
  (comparison, error) result
(** The full Figure 8 / Figure 9 / Table 3 measurement for one machine
    size. *)

val compare_mpmd_spmd_exn :
  ?config:config ->
  Machine.Ground_truth.t ->
  Costmodel.Params.t ->
  Mdg.Graph.t ->
  procs:int ->
  comparison
(** [compare_mpmd_spmd] with the request inline, raising {!Error} on
    failure — the {!plan_exn} of comparisons. *)
