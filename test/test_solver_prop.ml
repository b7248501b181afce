(* Optimality properties of the allocation solver on random feasible
   MDGs: the returned point is projected-gradient stationary for the
   tightest smoothed objective, warm-started re-solves reproduce the
   cold optimum, and the second-order (tape Newton-CG) engine agrees
   with the pure first-order Reference engine.  On random smooth
   objectives the Jacobi preconditioner changes the CG path, not the
   optimum, and solves racing on separate domains agree bit for bit.

   Cases come from the shared Generators module and shrink: a failure
   reports the smallest (layers, width, seed) triple that still
   trips the property. *)

module G = Mdg.Graph

let synth_params = Generators.synth_params

let procs = 16

(* The solver's own tightest smoothing temperature: mu_final scaled by
   the objective magnitude at the default (box centre) start. *)
let mu_final obj n =
  let centre = Array.make n (0.5 *. log (float_of_int procs)) in
  1e-6 *. Float.max (Float.abs (Convex.Expr.eval obj centre)) 1e-30

(* KKT stationarity, stated as achievable descent: from the returned
   optimum, no Armijo-backtracked projected-gradient step decreases
   the mu_final-smoothed objective by more than a small multiple of
   the solver tolerance.  (The raw projected-gradient norm is the
   wrong measure here: at a kink of the max the smoothed gradient is
   O(1) even at the exact minimiser, but no feasible step along it
   descends.)

   The band tracks the solver's accuracy floor.  The solver's
   kink-valley escape runs this very probe at mu_final and only
   returns once it finds at most ~tol relative descent (or two escape
   passes are spent), so the floor is now structural: the worst
   achievable descent over seeds 0..2999 is 9.9e-7 relative — down
   from ~2e-4 before this PR, when stalled anneals simply returned.
   1e-5 keeps 10x headroom for instances whose two escape passes run
   out while descent remains. *)
let prop_stationary =
  QCheck.Test.make ~name:"solve is projected-gradient stationary at mu_final"
    ~count:(Generators.count 100)
    (Generators.layered ())
    (fun case ->
      let g = Generators.mdg_of_layered case in
      let p = synth_params () in
      let r = Core.Allocation.solve p g ~procs in
      let n = G.num_nodes g in
      let obj = Core.Allocation.objective p g ~procs in
      let mu = mu_final obj n in
      let x = Array.map log r.alloc in
      let hi = log (float_of_int procs) in
      let fx, gr = Convex.Expr.eval_grad ~mu obj x in
      let rec probe alpha tries =
        if tries = 0 then 0.0
        else begin
          let c =
            Array.mapi
              (fun i xi -> Float.min hi (Float.max 0.0 (xi -. (alpha *. gr.(i)))))
              x
          in
          let fc = Convex.Expr.eval ~mu obj c in
          if fc < fx then fx -. fc else probe (alpha /. 2.0) (tries - 1)
        end
      in
      probe 1.0 30 <= 1e-5 *. (1.0 +. Float.abs fx))

(* Seed 6004 (at the then-fixed layers=4, width=4) once tripped the
   stationarity property (a stalled anneal before the mu = 0 polish);
   pin its convergence. *)
let test_seed_6004 () =
  let g = Generators.mdg_of_seed 6004 in
  let p = synth_params () in
  let r = Core.Allocation.solve p g ~procs in
  Alcotest.(check bool) "seed 6004 converges" true r.solver.converged

(* Warm-starting from the cold optimum skips the anneal and lands on
   the same optimum: never worse than 1e-6 (structural: the solver
   returns x0 if it cannot improve on it), and no further below than
   the first-order solve's own accuracy band — on rare seeds the cold
   anneal stops several 1e-3 above the true optimum and the warm
   re-solve recovers most of that. *)
let prop_warm_matches_cold =
  QCheck.Test.make ~name:"warm-started solve reaches the cold optimum"
    ~count:(Generators.count 100)
    (Generators.layered ())
    (fun case ->
      let g = Generators.mdg_of_layered case in
      let p = synth_params () in
      let cold = Core.Allocation.solve p g ~procs in
      let warm =
        Core.Allocation.solve ~x0:(Array.map log cold.alloc) p g ~procs
      in
      let band = 1.0 +. Float.abs cold.phi in
      warm.phi <= cold.phi +. (1e-6 *. band)
      && Float.abs (warm.phi -. cold.phi) <= 1e-2 *. band)

(* The tape engine (with its Newton-CG refinement) and the DAG-walking
   Reference engine (pure FISTA) minimise the same convex program to
   the same optimum, up to the first-order engine's accuracy. *)
let prop_engines_agree =
  QCheck.Test.make ~name:"second-order tape engine agrees with Reference"
    ~count:(Generators.count 100)
    (Generators.layered ~max_layers:3 ~max_width:3 ())
    (fun case ->
      let g = Generators.mdg_of_layered case in
      let p = synth_params () in
      let tape = Core.Allocation.solve p g ~procs in
      let refr = Core.Allocation.solve ~engine:`Reference p g ~procs in
      Float.abs (tape.phi -. refr.phi) <= 1e-2 *. (1.0 +. Float.abs refr.phi))

module Expr = Convex.Expr
module Solver = Convex.Solver

let nvars = 4

(* Preconditioning changes the CG iterates, not where Newton converges:
   on random {e smooth} objectives (fat sums of posynomial terms, no
   max kinks) over a box, the solver with and without the Jacobi
   preconditioner must land on the same optimum to 1e-8 relative.

   Smoothness matters: objectives with [max_] terms end in an exact
   (mu = 0) stage whose Armijo search stalls somewhere in a kink
   valley, and the stall point is path-dependent — measured on this
   solver, two runs of the {e same} unpreconditioned configuration from
   starts 0.01 apart already disagree by up to ~2e-4 relative there.
   On smooth instances both variants genuinely reach stationarity, so
   the comparison is sharp. *)
let smooth_expr_gen =
  let open QCheck.Gen in
  let term =
    let* c = float_range 0.1 5.0 in
    let* es =
      list_size (int_range 1 3)
        (pair (int_range 0 (nvars - 1)) (float_range (-2.0) 2.0))
    in
    return (Expr.term ~coeff:c ~expts:es)
  in
  let* xs = list_size (int_range 40 120) term in
  let* s = float_range 0.5 2.0 in
  return (Expr.scale s (Expr.sum xs))

let prop_pcg_same_optimum =
  QCheck.Test.make
    ~name:"preconditioned CG reaches the plain-CG optimum (1e-8)"
    ~count:25
    QCheck.(make Gen.(pair smooth_expr_gen (oneofl [ 0.5; 1.0; 2.0 ])))
    (fun (e, span) ->
      let lo = Array.make nvars (-.span) and hi = Array.make nvars span in
      let prob = { Solver.objective = e; lo; hi } in
      (* A tight step tolerance so the comparison is not dominated by
         the stopping slack: at the default 1e-6 both solves stop
         anywhere in an O(tol)-wide neighbourhood. *)
      let solve precondition =
        Solver.solve
          ~options:{ Solver.default_options with precondition; tol = 1e-10 }
          prob
      in
      let pc = solve true in
      let plain = solve false in
      let tol = 1e-8 *. (1.0 +. Float.abs plain.Solver.value) in
      if Float.abs (pc.Solver.value -. plain.Solver.value) > tol then
        QCheck.Test.fail_reportf
          "optima differ: preconditioned %.12g vs plain %.12g (span %g)"
          pc.Solver.value plain.Solver.value span
      else true)

(* The plan server's scenario: several domains solving the same
   problem at once, each through its own compilation.  The solver is
   deterministic and solves share no mutable state, so the racing
   values must agree bit for bit. *)
let test_concurrent_big_tape_solves () =
  let terms =
    List.init 1400 (fun i ->
        Expr.term
          ~coeff:(1.0 +. float_of_int (i mod 7))
          ~expts:
            [ (i mod nvars, if i mod 2 = 0 then 1.0 else -1.0) ])
  in
  let e = Expr.sum terms in
  let lo = Array.make nvars (-1.0) and hi = Array.make nvars 1.0 in
  let prob = { Solver.objective = e; lo; hi } in
  let solve () = (Solver.solve prob).Solver.value in
  let ds = List.init 3 (fun _ -> Domain.spawn solve) in
  let v0 = solve () in
  let vs = List.map Domain.join ds in
  List.iteri
    (fun i v ->
      if not (Float.equal v v0) then
        Alcotest.failf "racing solve %d diverged: %.17g vs %.17g" i v v0)
    vs

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_stationary; prop_warm_matches_cold; prop_engines_agree ]
  @ [ Alcotest.test_case "seed 6004 converges" `Quick test_seed_6004 ]
  @ [
      QCheck_alcotest.to_alcotest prop_pcg_same_optimum;
      Alcotest.test_case "concurrent big-tape solves" `Quick
        test_concurrent_big_tape_solves;
    ]
