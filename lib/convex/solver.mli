(** Projected Newton-CG solver for box-constrained convex programs.

    Minimises a convex objective over a box [lo ≤ x ≤ hi], given
    either as an expression ({!solve} over an {!Expr}) or as an
    already-built flat tape ({!solve_compiled}, the plan path, which
    never touches an {!Expr}).  Non-smooth maxima are handled by
    annealing a log-sum-exp smoothing temperature: each stage minimises
    the smoothed (convex, C¹) objective at a fixed temperature, then the
    temperature shrinks, and an exact (mu = 0) polishing stage ends the
    solve.  Because the smoothed objective over-estimates the true one
    by at most [mu·ln k], the final iterate is within a vanishing
    additive gap of the global minimum of the original problem.

    {!solve} compiles the expression once per solve to a flat
    instruction tape ({!Tape}) with reverse-mode gradients and then
    runs exactly what {!solve_compiled} runs, so every sweep costs
    O(|tape|) and allocates nothing — instead of the O(n·|DAG|)
    forward-mode sweep of {!Expr.eval_grad}.  The DAG-walking
    {!Expr.eval} and {!Expr.eval_grad} are not a solve path: they are
    the independent reference a solve's result is checked against.

    Every stage is a projected (two-metric) Newton-CG stage.
    Jacobi-preconditioned conjugate gradients over masked tape
    Hessian-vector products ({!Tape.hvp_masked}, swept over the
    instructions live under the current free set only) solve the
    Newton system on the free (non-bound) variables, cutting the
    iteration count at tight smoothing temperatures from hundreds to a
    handful.  At mu = 0 the masked HVP is the generalised Hessian of
    the active piece, and the projected-Newton polish is what pushes a
    stalled anneal the last ~1e-3 to the optimum.

    Each Newton step is accepted by an Armijo test along the projected
    arc [x + α·d], over the step grid α_k = [armijo_shrink]^k,
    k = 0 … {!grid_steps}−1 ({!grid_search}).  The accepted step falls
    slowly over a solve, so the search starts one grid step above the
    last accepted index — carried across the stages of one solve,
    starting at 0 — and walks down on rejection or up while accepted,
    falling back to the longer steps from α = 1 only when nothing at or
    below its start is accepted.  This is exact where the accepted grid
    indices are upward-closed: the warm-started search then returns the
    step a backtracking scan from α = 1 returns, in about half the trial
    sweeps.  They are whenever no box face bends the arc, since the
    objective is convex in x, hence along the straight arc, and its
    Armijo-accepted steps form an interval (0, ᾱ].  Where a face bends
    the arc, or rounding blurs the test at tiny steps, the two searches
    can accept different steps.  When the
    Newton arc admits no step the stage falls back to the projected
    gradient arc, searched from α = 1: a truncated CG direction can fail
    the Armijo test while the plain gradient still descends.  The golden
    row [strassen-l1-p16-warm] pins it: without the fallback that warm
    re-solve ends 6.2e-4 relative worse.  Every
    sweep runs serially on the calling domain; concurrent solves
    parallelise across domains, each on its own {!compiled} value.

    After the exact polish a kink-valley escape probes for strict
    descent of the tightest smoothed objective, whose gradient
    averages the branches of a max and so points along a valley floor
    where every exact subgradient step ascends; when it finds more than
    the stall tolerance it re-runs the tightest smoothed stage and the
    polish (at most twice), keeping the better exact point.  The golden
    row [workgen-d3-s2] pins it: without the escape that solve ends
    4.3e-4 relative worse.

    Supplying a starting point [x0] warm-starts the solve; when an
    Armijo-probed gradient step at the tightest smoothing temperature
    can no longer decrease the objective appreciably — i.e. the point
    is already near-optimal, as a previous optimum from a nearby
    problem in a parameter sweep typically is — the anneal down to that
    temperature is skipped, which makes such re-solves several times
    cheaper: in the [sweep] experiment (Strassen, 3 levels) re-solves
    of the same program from its own optimum run 2.6–2.8× faster than
    cold ones. *)

type problem = {
  objective : Expr.t;
  lo : Numeric.Vec.t;
  hi : Numeric.Vec.t;
}

type options = {
  tol : float;            (** stop when the projected-gradient step
                              moves x by less than [tol] in inf-norm *)
  mu_init : float;        (** initial smoothing temperature, as a
                              fraction of the initial objective value *)
  mu_final : float;       (** final temperature (same scaling) *)
  mu_decay : float;       (** multiplicative decay per stage, in (0,1) *)
  armijo_c : float;       (** sufficient-decrease constant *)
  armijo_shrink : float;  (** backtracking factor and step-grid ratio
                              ({!grid_search}), in (0,1) *)
  newton_max_iters : int; (** outer Newton iterations per stage *)
  cg_max_iters : int;     (** CG iterations per Newton system (also
                              capped at the variable count) *)
  precondition : bool;
      (** Jacobi-precondition the Newton-CG inner solves with the
          tape's Gauss–Newton Hessian diagonal ({!Tape.hess_diag},
          clamped by {!Precond.jacobi_clamp}).  On by default; with it
          off the identity diagonal reproduces plain CG bit for bit,
          the reference against which the property suite checks that
          preconditioned CG reaches the plain-CG optimum. *)
}

val default_options : options

val grid_steps : int
(** Length of the Armijo step grid: indices k = 0 … [grid_steps]−1
    stand for the steps α_k = [armijo_shrink]^k (40 indices). *)

val grid_search : start:int -> (int -> bool) -> int option
(** [grid_search ~start accept] is the arc search of every Newton step,
    over grid indices ([accept k] runs the trial at α_k).  It tries
    [start] first.  On a rejection it steps down the grid (shorter
    steps) until a trial is accepted; when the first trial is accepted
    and [start > 0] it steps up (longer steps) while trials are
    accepted, and returns the last accepted index.  If nothing at or
    below [start] is accepted it scans the indices above [start] from
    k = 0.  So it returns an accepted index whenever one exists in the
    grid and [None] only when no index is accepted.  If the accepted
    set is upward-closed in k, it returns its least element k* — the
    result of a scan from k = 0 — after at most |k* − start| + 2 calls
    of [accept].  Raises [Invalid_argument] if [start] is outside the
    grid. *)

type result = {
  x : Numeric.Vec.t;      (** final iterate (inside the box) *)
  value : float;          (** exact (unsmoothed) objective at [x] *)
  iterations : int;       (** Newton outer iterations, summed over
                              the stages *)
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

val solve_compiled :
  ?options:options ->
  ?obs:Obs.t ->
  ?x0:Numeric.Vec.t ->
  compiled ->
  lo:Numeric.Vec.t ->
  hi:Numeric.Vec.t ->
  result
(** Minimise a compiled objective over the box [lo ≤ x ≤ hi], with no
    {!Expr.t} anywhere.  This is the plan path: the allocator emits its
    tape straight from the MDG and solves it here.  Behaves exactly as
    {!solve} on an objective that compiles to the same tape — same iterates, counts
    and telemetry.  Raises [Invalid_argument] if the box is empty,
    dimensions disagree, the tape references variables outside the
    box ({!Tape.n_vars}), or [options.mu_decay] or
    [options.armijo_shrink] lies outside (0, 1) (the message names the
    field). *)

val solve :
  ?options:options ->
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
    [Invalid_argument] if the box is empty, dimensions disagree, the
    objective references variables outside the box, or
    [options.mu_decay] or [options.armijo_shrink] lies outside (0, 1)
    (the message names the field).

    With a live [obs] sink (default {!Obs.null}: no overhead) the
    solve is wrapped in a ["solver.solve"] span and every smoothing
    stage emits a ["solver.stage"] counter sampling the smoothing
    temperature [mu], the exact (unsmoothed) [objective] reached and its
    [decrease] from the previous stage.  Before it the stage emits
    ["solver.hvp"] (Hessian-vector products), ["solver.cg_iters"] (outer
    Newton and inner CG iterations) and ["solver.linesearch"]: the
    stage's arc [searches] (Newton and gradient-arc fallback alike),
    their [trials] (forward sweeps), the [fallbacks] to the gradient arc
    and the [last_index] of the step grid a Newton step accepted, as
    carried into the next stage.  So over one solve the [newton_iters]
    sum to {!result.iterations}, the [hvps] to [hvp_evals] and the
    [cg_iters] to [cg_iterations].  A
    warm-started solve emits one ["solver.warm_start"] counter recording
    the probed gradient-step decrease at [x0] and whether the anneal
    was skipped; even a skipped anneal still runs the tightest smoothed
    stage and the exact polish to full tolerance.  (An exact duplicate
    of an earlier plan request never reaches the solver at all: the
    plan cache answers it with the stored result.) *)
