(** Processor allocation by convex programming (paper Section 2).

    Builds the objective

    {v
      Phi = max(A_p, C_p)
      A_p = (1/p) * sum_i T_i * p_i
      C_p = y_STOP,   y_i = max over preds (y_m + t^D_mi) + T_i
      T_i = sum t^R + t^C + sum t^S
    v}

    over the log-transformed per-node processor counts [x_i = ln p_i],
    where every cost term is a posynomial (Lemmas 1–2), so the problem
    is convex with a unique minimum, and solves it with
    {!Convex.Solver}.  The resulting real-valued allocation is the
    input to the PSA's rounding step. *)

type result = {
  alloc : float array;       (** optimal real allocation, in [1, p] *)
  phi : float;               (** optimal objective value Φ *)
  average : float;           (** A_p at the optimum *)
  critical_path : float;     (** C_p at the optimum *)
  solver : Convex.Solver.result;
}

(** {1 The objective}

    The plan path never builds an expression: {!objective_tape} writes
    the objective's flat tape straight from the graph, and {!solve}
    runs on it.  The {!Convex.Expr} builders below are the reference
    implementation: {!evaluate} and the test suite's equality checks
    use them. *)

val objective_tape :
  Costmodel.Params.t -> Mdg.Graph.t -> procs:int -> Convex.Tape.t
(** The tape of Φ, emitted in one walk over the normalised graph.  Its
    contract is equality with the compiled reference:
    [Convex.Tape.equal (objective_tape params g ~procs)
    (Convex.Tape.compile (objective params g ~procs))], array for array
    and bit for bit, so every Φ and solver count is the same on either
    path.  Raises exactly where {!objective} does, with the same
    [Invalid_argument] (or [Not_found] for a missing calibration). *)

val objective :
  Costmodel.Params.t -> Mdg.Graph.t -> procs:int -> Convex.Expr.t
(** The convex expression for Φ, with variable [i] = [ln pᵢ].  The
    graph must be normalised ({!Mdg.Graph.normalise}). *)

val average_expr :
  Costmodel.Params.t -> Mdg.Graph.t -> procs:int -> Convex.Expr.t
(** Just the [A_p] term. *)

val critical_path_expr :
  Costmodel.Params.t -> Mdg.Graph.t -> procs:int -> Convex.Expr.t
(** Just the [C_p] term. *)

val solve :
  ?options:Convex.Solver.options ->
  ?obs:Obs.t ->
  ?x0:Numeric.Vec.t ->
  Costmodel.Params.t ->
  Mdg.Graph.t ->
  procs:int ->
  result
(** Solve the allocation problem.  Raises [Invalid_argument] if the
    graph is not normalised or [procs < 1], or if the solver rejects
    [options] or [x0] ({!Convex.Solver.solve_compiled}); raises
    [Not_found] if the parameter set lacks processing entries for a
    kernel in the graph.  [obs] (default {!Obs.null}) receives the
    underlying solver's convergence telemetry — see
    {!Convex.Solver.solve}.

    [x0] warm-starts the solver in log-space ([x0.(i) = ln p_i],
    typically [Array.map log previous.alloc]): across parameter or
    machine-size sweeps the previous optimum is usually
    near-stationary for the next problem, letting the solver skip its
    annealing stages — see {!Convex.Solver.solve}.

    The solve emits the objective's tape ({!objective_tape}), solves it
    with {!Convex.Solver.solve_compiled}, which drives every solver
    iteration and the exact Φ evaluation, and reads A_p and C_p off the
    root max's branches: no {!Convex.Expr} node is built. *)

val evaluate :
  Costmodel.Params.t -> Mdg.Graph.t -> procs:int -> alloc:float array -> float
(** Φ evaluated at an arbitrary allocation (each entry in [1, p]) —
    the exact max, not the smoothed objective.  Useful for comparing
    candidate allocations and in optimality tests. *)
