(** Flat instruction tapes with reverse-mode gradients.

    A tape is a flat, topologically sorted instruction array over
    log-space variables: constants, posynomial terms, sums with a
    constant bias, (optionally scaled) maxima and scales.  Every
    [Term]'s exponent list is flattened into shared index/exponent
    arrays, pooled by monomial: under x_i = ln p_i each cost term is
    [c·exp(a·x)] with one of a handful of exponent vectors per node
    and edge, so the tape stores each distinct exponent segment once
    and every term slot with that segment points at it.  A reusable
    {!workspace} holds the per-slot value and adjoint buffers plus a
    softmax-weight slab (sized when the tape is built) for the
    smoothed [max].  Evaluation is one forward sweep over the tape; the
    gradient is a forward sweep followed by a reverse (adjoint) sweep
    that accumulates scalar adjoints straight into the caller's output
    vector — O(|tape|) total, with zero heap allocation once the
    workspace exists.  Every sweep runs serially on the calling domain;
    concurrent evaluators share one tape, each through its own
    workspace.

    The slots come in two blocks: every term slot first, in
    construction order, then every other slot (constants, sums, maxima
    and scales), in construction order.  A term has no children, so
    the tape stays children-first, and each block keeping its order
    keeps every sum in the order a single construction-ordered array
    would give.  A forward sweep runs the term block with no per-slot
    dispatch, then the other block; a reverse sweep runs the other
    block, then the term block.

    A forward sweep calls [exp] once per distinct monomial, not once
    per term slot, and the smoothed max skips the [exp] and [log] calls
    whose results are exact: a branch equal to the max contributes 1, a
    branch more than 746·mu below it contributes +0 (where [exp]
    underflows), and [log 1 = 0].  Every value, gradient and
    Hessian-vector product is bit-identical to evaluating each term and
    branch on its own.

    {b The held point.}  {!eval}, {!eval_grad} and {!eval_hvp} run
    one and the same forward sweep.  A workspace remembers the point
    and [mu] of its last one: the first {!n_vars} coordinates and
    [mu], compared by their bits.  Each forward sweep stores the
    values, the first maximising branch of every max and, at
    [mu > 0], its normalised softmax weights, so {!eval} and
    {!eval_grad} at the held point run no forward sweep: [eval] returns the held value and
    [eval_grad] runs the reverse sweep alone.  So a solver that accepts
    the point of its last trial evaluation pays only the reverse sweep
    for the gradient there.  {!eval_hvp} holds its own point; {!hvp}
    and {!hess_diag} leave the held point as it is.

    Two front ends write tapes through one {!Builder}:
    - {!compile} walks an {!Expr} DAG once: constant subtrees are
      folded, constant summands are fused into a per-[Sum] bias,
      single-use sums are spliced into their parent and scales are
      fused into single-use terms and maxima.
    - [Core.Allocation.objective_tape] writes the allocation
      objective straight from the MDG, with no DAG at all.  Its
      contract is equality with this module's {!compile} of
      [Core.Allocation.objective], array for array and bit for bit
      ({!equal}); the test suite checks it on random and paper graphs.

    Semantics match {!Expr.eval} / {!Expr.eval_grad} exactly,
    including the subgradient choice at [mu <= 0] (the first
    maximising branch, in construction order) and the log-sum-exp
    smoothing for [mu > 0]; the reference implementations remain in
    {!Expr} and the test suite cross-checks the two.  A max with a NaN
    branch is NaN at every [mu], as [Float.max] makes it in {!Expr};
    its subgradient then follows the first maximising branch that is
    not NaN (none if every branch is NaN), where {!Expr.eval_grad}
    keeps branch 0 when that branch is the NaN. *)

type t
(** A compiled objective: immutable, shareable between workspaces. *)

type workspace
(** Mutable evaluation buffers for one tape.  Not thread-safe; create
    one workspace per concurrent evaluator. *)

(** Append-only tape construction.  Each call appends one slot (after
    its term or child segment) to the term block or to the other block
    and returns a {e reference} to it, not its final slot index:
    {!finish} places the term block first, so a slot's index is known
    only then.  References are non-negative, so callers may keep -1
    for "none", and they are what the other calls take as children
    and as the root.  Children must already exist, so a tape is built
    children-first. *)
module Builder : sig
  type tape := t

  type t

  val create : unit -> t

  val const : t -> float -> int
  (** A constant slot.  Equal values (by [compare]) share one slot. *)

  val term : t -> float -> (int * float) array -> int
  (** [term b coeff expts] is [coeff · exp(Σ a·x_i)] over [expts], given
      in ascending variable order as {!Expr} keeps them (the tape stores
      them reversed).  A term whose stored entries (variables and
      exponent bits) equal an earlier term's shares that term's
      segment, so its entries are not stored again.  An empty [expts]
      is the constant [coeff] ({!const}). *)

  val sum : t -> float -> int list -> int
  (** [sum b bias kids] is [bias + Σ kids], with [kids] in reverse
      construction order (the order a cons-accumulating walk produces,
      and the order stored).  A zero-bias sum of one child is that
      child: no slot is added. *)

  val max : t -> float -> int list -> int
  (** [max b f kids] is [f · max kids] (smoothed at [mu > 0]), [kids]
      in construction order. *)

  val scale : t -> float -> int -> int
  (** [scale b f s] is [f · s]. *)

  val finish : t -> root:int -> tape
  (** The finished tape, rooted at reference [root], with every
      reference resolved to its slot.  {!n_vars} is one more than the
      highest variable of any term. *)
end

val compile : Expr.t -> t
(** One-shot compilation of the DAG reachable from the root. *)

val equal : t -> t -> bool
(** Same instructions, segments, monomial numbering, constants (bit
    for bit), variable count and root. *)

val create_workspace : t -> workspace
(** Fresh buffers sized for the tape.  All subsequent [eval] /
    [eval_grad] calls through this workspace are allocation-free. *)

val n_vars : t -> int
(** Number of variables the tape reads, i.e. {!Expr.max_var}[ + 1]. *)

val num_slots : t -> int
(** Number of instructions (distinct live DAG nodes after folding). *)

val num_term_entries : t -> int
(** Flattened (variable, exponent) pairs stored for the terms: each
    distinct monomial's entries count once, however many term slots
    share them. *)

val num_monomials : t -> int
(** Distinct monomials (exponent segments) of the tape: the [exp]
    calls of one forward sweep's term pre-pass. *)

val num_children : t -> int
(** Total flattened child references across all sums and maxima. *)

val eval : ?mu:float -> t -> workspace -> Numeric.Vec.t -> float
(** Forward sweep, or none at the held point; equals
    {!Expr.eval}[ ~mu root x].  Raises [Invalid_argument] if [x] is
    shorter than {!n_vars}. *)

val root_branches : t -> workspace -> float array
(** When the tape's root is a max: the values of its branches (with
    the root's fused scale factor applied) as left in [workspace] by
    the {e last} forward sweep — call {!eval} at the point (and [mu])
    of interest first.  Branches appear in construction order, so for
    an objective built as [max_ [a; b]] the result is [[| v_a; v_b |]].
    Returns [[||]] when the root is not a max (after simplification).
    Note the branches of a [mu > 0] sweep are themselves smoothed if
    they contain inner maxima. *)

val eval_grad :
  ?mu:float -> t -> workspace -> x:Numeric.Vec.t -> grad:Numeric.Vec.t -> float
(** Forward sweep (none at the held point) and reverse sweep.
    Overwrites [grad] (which must have the same dimension as [x]) with
    the (sub)gradient and returns the value; equals
    {!Expr.eval_grad}[ ~mu root x]. *)

val eval_hvp :
  ?mu:float ->
  t ->
  workspace ->
  x:Numeric.Vec.t ->
  dx:Numeric.Vec.t ->
  grad:Numeric.Vec.t ->
  hvp:Numeric.Vec.t ->
  float
(** Hessian-vector product by forward-over-reverse: the forward sweep
    (none at the held point), a pass carrying first-order tangents
    along the direction [dx], then the reverse sweep and a pass
    propagating adjoint tangents.  Overwrites [grad] with the gradient
    (identical to {!eval_grad}) and [hvp] with [H(x)·dx], and returns
    the value — all in O(|tape|), allocation-free on a warm workspace
    (roughly twice the cost of {!eval_grad}).  It holds [x] and [mu].

    With [mu > 0] the smoothed objective is C² and [hvp] is its exact
    Hessian-vector product.  With [mu <= 0] the objective is piecewise
    smooth; [hvp] is the Hessian of the currently active piece (each
    max differentiates through its first maximising branch, matching
    the subgradient tie-break).

    {!hvp} runs the same two passes without the sweeps; the solver
    calls that, not this. *)

(** {1 Hessian-vector products after a gradient}

    Inside projected Newton-CG each Newton system's CG loop asks for
    many products at the point of one gradient.  So [hvp] runs only
    the tangent and adjoint-tangent passes of {!eval_hvp}, over the
    whole tape, on the values, softmax weights, max selections and
    adjoints that the last {!eval_grad} left in the workspace, at the
    [mu] of that sweep: the held [mu].

    Protocol: call {!eval_grad} at the point of interest, then any
    number of [hvp] calls, with no other sweep through the same
    workspace in between.  An {!eval} or {!eval_grad} at the held
    point runs no forward sweep, so it keeps the protocol. *)

val hvp : t -> workspace -> dx:Numeric.Vec.t -> hvp:Numeric.Vec.t -> unit
(** Overwrite [hvp] with [H(x)·dx] at the point [x] and the [mu] of
    the last {!eval_grad} on this workspace: {!eval_hvp}'s [hvp] at
    that point along the same [dx], bit for bit.  There is no free
    set: a caller restricting the Hessian to one passes a [dx] that is
    zero off it and zeroes the result there itself.  O(|tape|) per
    call, allocation-free.  Raises [Invalid_argument] if [dx] is
    shorter than {!n_vars} or [hvp] and [dx] differ in dimension. *)

val hess_diag : t -> workspace -> diag:Numeric.Vec.t -> unit
(** Overwrite [diag] with the Gauss–Newton diagonal of the Hessian at
    the point of the last {!eval_grad} on this workspace: each
    posynomial term contributes [adj·v·e²] per coordinate; the (PSD)
    smoothed-max curvature is dropped.
    Basis of the solver's Jacobi preconditioner. *)
