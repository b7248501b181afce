(** Projected-gradient solver for box-constrained convex programs.

    Minimises a convex objective over a box [lo ≤ x ≤ hi], given
    either as an expression ({!solve} over an {!Expr}) or as an
    already-built flat tape ({!solve_compiled}, the plan path, which
    never touches an {!Expr}).  Non-smooth maxima are handled by annealing a
    log-sum-exp smoothing temperature: each stage minimises the smoothed
    (convex, C¹) objective by projected gradient descent with Armijo
    backtracking, then the temperature shrinks.  Because the smoothed
    objective over-estimates the true one by at most [mu·ln k], the
    final iterate is within a vanishing additive gap of the global
    minimum of the original problem.

    {!solve} compiles the expression once per solve to a flat
    instruction tape ({!Tape}) with reverse-mode gradients and then
    runs exactly what {!solve_compiled} runs, so every FISTA
    iteration, Armijo probe and per-stage exact evaluation costs
    O(|tape|) and allocates nothing — instead of the O(n·|DAG|)
    forward-mode sweep of {!Expr.eval_grad}.  The DAG-walking
    implementation remains available as the [Reference] engine for
    cross-checking.

    On the tape engine each stage — including the exact (mu = 0)
    polish — is a projected Newton-CG stage instead
    ({!options.second_order}, on by default):
    Jacobi-preconditioned conjugate gradients over masked tape
    Hessian-vector products ({!Tape.hvp_masked}, swept over the
    instructions live under the current free set only) solve the
    Newton system on the free (non-bound) variables, cutting the
    iteration count at tight smoothing temperatures from hundreds to a
    handful.  At mu = 0 the masked HVP is the generalised Hessian of
    the active piece, and the projected-Newton polish is what pushes a
    stalled first-order anneal the last ~1e-3 to the optimum.  Every
    sweep runs serially on the calling domain; concurrent solves
    parallelise across domains, one {!compiled} workspace each
    ({!share_tape}).  The [Reference] engine has no second-order
    oracle and keeps the pure first-order behaviour.

    Supplying a starting point [x0] warm-starts the solve; when an
    Armijo-probed gradient step at the tightest smoothing temperature
    can no longer decrease the objective appreciably — i.e. the point
    is already near-optimal, as a previous optimum from a nearby
    problem in a parameter sweep typically is — the anneal down to that
    temperature is skipped, which makes such re-solves several times
    cheaper. *)

type problem = {
  objective : Expr.t;
  lo : Numeric.Vec.t;
  hi : Numeric.Vec.t;
}

type options = {
  max_iters : int;        (** FISTA iterations per smoothing stage
                              (first-order stages only) *)
  tol : float;            (** stop when the projected-gradient step
                              moves x by less than [tol] in inf-norm *)
  mu_init : float;        (** initial smoothing temperature, as a
                              fraction of the initial objective value *)
  mu_final : float;       (** final temperature (same scaling) *)
  mu_decay : float;       (** multiplicative decay per stage, in (0,1) *)
  step_init : float;      (** initial trial step for line search *)
  armijo_c : float;       (** sufficient-decrease constant *)
  armijo_shrink : float;  (** backtracking factor, in (0,1) *)
  second_order : bool;    (** run every stage as projected Newton-CG
                              over tape Hessian-vector products
                              instead of FISTA (tape engines only) *)
  newton_max_iters : int; (** outer Newton iterations per stage *)
  cg_max_iters : int;     (** CG iterations per Newton system (also
                              capped at the variable count) *)
  precondition : bool;
      (** Jacobi-precondition the Newton-CG inner solves with the
          tape's Gauss–Newton Hessian diagonal ({!Tape.hess_diag},
          clamped by {!Precond.jacobi_clamp}).  On by default; with it
          off the identity diagonal reproduces plain CG bit for bit. *)
}

val default_options : options

type result = {
  x : Numeric.Vec.t;      (** final iterate (inside the box) *)
  value : float;          (** exact (unsmoothed) objective at [x] *)
  iterations : int;       (** total gradient iterations across stages
                              (FISTA plus Newton outer iterations) *)
  stages : int;           (** smoothing stages performed *)
  converged : bool;       (** the final exact (unsmoothed) stage hit its
                              step tolerance *)
  hvp_evals : int;        (** Hessian-vector products evaluated *)
  cg_iterations : int;    (** total CG iterations across Newton solves *)
}

type compiled
(** A tape-compiled objective together with its reusable evaluation
    workspace.  Compile once per problem and share across solves and
    exact evaluations; the workspace is mutable, so a [compiled] value
    must not be used from two evaluators concurrently. *)

val compile_tape : ?obs:Obs.t -> (unit -> Tape.t) -> compiled
(** [compile_tape build] runs the tape front end [build] (for example
    [Core.Allocation.objective_tape]) and pairs the tape with a fresh
    workspace.  With a live [obs] sink the build is wrapped in a
    ["solver.compile"] span and emits a ["solver.tape"] counter
    sampling the tape's sizes ([slots], [term_entries], [children],
    [vars]). *)

val compile : ?obs:Obs.t -> Expr.t -> compiled
(** [compile_tape] over {!Tape.compile}: compile an objective DAG to a
    flat tape. *)

val compiled_branches : compiled -> float array
(** {!Tape.root_branches} of the compiled tape: the root max's branch
    values as left by the last {!eval_compiled} — call that first at
    the point of interest.  Empty when the objective's root is not a
    max. *)

val eval_compiled : ?mu:float -> compiled -> Numeric.Vec.t -> float
(** Evaluate a compiled objective; equals {!Expr.eval} on the original
    expression.  O(|tape|), allocation-free. *)

val share_tape : compiled -> compiled
(** A new [compiled] value sharing the (immutable) instruction tape but
    owning a fresh evaluation workspace.  This is how a cached
    compilation is handed to concurrent solvers: each domain calls
    [share_tape] on the cache entry and works in its own scratch
    space.  O(|tape|) allocation, no recompilation. *)

type engine =
  | Tape  (** compile the objective to a tape inside [solve] (default) *)
  | Reference
      (** the memoised DAG-walking {!Expr.eval} / {!Expr.eval_grad} —
          the slow reference implementation, kept for cross-checks *)

val solve_compiled :
  ?options:options ->
  ?obs:Obs.t ->
  ?x0:Numeric.Vec.t ->
  compiled ->
  lo:Numeric.Vec.t ->
  hi:Numeric.Vec.t ->
  result
(** The tape engine alone: minimise a compiled objective over the box
    [lo ≤ x ≤ hi], with no {!Expr.t} anywhere.  This is the plan path:
    the allocator emits its tape straight from the MDG and solves it
    here.  Behaves exactly as {!solve} with the [Tape] engine on an
    objective that compiles to the same tape — same iterates, counts
    and telemetry.  Raises [Invalid_argument] if the box is empty,
    dimensions disagree, or the tape references variables outside the
    box ({!Tape.n_vars}). *)

val solve :
  ?options:options ->
  ?engine:engine ->
  ?obs:Obs.t ->
  ?x0:Numeric.Vec.t ->
  problem ->
  result
(** Solve the problem.  [x0] defaults to the box centre; it is projected
    into the box first.  Supplying [x0] enables warm-starting: if the
    point is already near-optimal at the tightest smoothing
    temperature, all earlier annealing stages are skipped; and the
    result is never worse than [x0] itself — if the staged solve ends
    above the (projected) starting point, the starting point is
    returned.  Raises
    [Invalid_argument] if the box is empty, dimensions disagree, or the
    objective references variables outside the box.

    With a live [obs] sink (default {!Obs.null}: no overhead) the
    solve is wrapped in a ["solver.solve"] span and every smoothing
    stage emits a ["solver.stage"] counter sampling the smoothing
    temperature [mu], first-order (FISTA) [iterations], Armijo
    [backtracks], the exact (unsmoothed) [objective] reached and its
    [decrease] from the previous stage.  Newton-CG stages report zero
    first-order iterations there and additionally emit ["solver.hvp"]
    (Hessian-vector products) and ["solver.cg_iters"] (outer Newton and
    inner CG iterations), so over one solve the [solver.stage]
    iterations plus the [newton_iters] sum to {!result.iterations}, the
    [hvps] to [hvp_evals] and the [cg_iters] to [cg_iterations].  A
    warm-started solve emits one ["solver.warm_start"] counter recording
    the probed gradient-step decrease at [x0] and whether the anneal
    was skipped; even a skipped anneal still runs the tightest smoothed
    stage and the exact polish to full tolerance.  (An exact duplicate
    of an earlier plan request never reaches the solver at all: the
    plan cache answers it with the stored result.) *)
