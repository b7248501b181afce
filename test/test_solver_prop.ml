(* Optimality properties of the allocation solver on random feasible
   MDGs: the returned Φ, A_p and C_p are what the Expr reference
   evaluates at the returned allocation, that point is
   projected-gradient stationary for the tightest smoothed Expr
   objective, and warm-started re-solves reproduce the cold optimum.
   On random smooth objectives the Jacobi preconditioner changes the CG
   path, not the optimum, and solves racing on separate domains agree
   bit for bit.

   Cases come from the shared Generators module and shrink: a failure
   reports the smallest (layers, width, seed) triple that still
   trips the property. *)

let synth_params = Generators.synth_params

let procs = 16

(* The solve agrees with the Expr reference at its own allocation
   (Generators.expr_mismatches), and no projected-gradient step of the
   mu_final-smoothed Expr objective descends by more than a small
   multiple of the solver tolerance (Generators.mu_final_descent).

   The descent band tracks the solver's accuracy floor.  The solver's
   kink-valley escape runs this very probe at mu_final and only
   returns once it finds at most ~tol relative descent (or two escape
   passes are spent), so the floor is structural: the worst achievable
   descent over seeds 0..2999 is 9.9e-7 relative, down from ~2e-4
   before the escape, when stalled anneals simply returned.  1e-5 keeps
   10x headroom for instances whose two escape passes run out while
   descent remains. *)
let prop_stationary =
  QCheck.Test.make ~name:"solve is projected-gradient stationary at mu_final"
    ~count:(Generators.count 100)
    (Generators.layered ())
    (fun case ->
      let g = Generators.mdg_of_layered case in
      let p = synth_params () in
      let r = Core.Allocation.solve p g ~procs in
      match Generators.expr_mismatches p g ~procs r with
      | m :: _ -> QCheck.Test.fail_report m
      | [] -> Generators.mu_final_descent p g ~procs r <= 1e-5)

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
   the cold solve's own accuracy band — on rare seeds the cold
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

(* The Newton arc search over the step grid ({!Solver.grid_search}).
   [counting] counts the calls of [accept]; [scan] is the plain
   backtracking scan from k = 0 that the search must agree with on
   upward-closed sets. *)
let counting accepted =
  let calls = ref 0 in
  let accept k =
    incr calls;
    accepted k
  in
  (accept, calls)

let scan accepted =
  let rec go k =
    if k >= Solver.grid_steps then None
    else if accepted k then Some k
    else go (k + 1)
  in
  go 0

let grid_index = QCheck.Gen.int_range 0 (Solver.grid_steps - 1)

(* Upward-closed accepted sets {k >= k*}, with k* = grid_steps for the
   empty set: the shape Armijo acceptance takes on a straight arc of a
   convex function. *)
let prop_grid_upward_closed =
  QCheck.Test.make
    ~name:"grid search on an upward-closed set: the scan's index, few calls"
    ~count:(Generators.count 500)
    QCheck.(
      make ~print:Print.(pair int int)
        Gen.(pair grid_index (int_range 0 Solver.grid_steps)))
    (fun (start, k_star) ->
      let accepted k = k >= k_star in
      let accept, calls = counting accepted in
      let got = Solver.grid_search ~start accept in
      if got <> scan accepted then
        QCheck.Test.fail_reportf "returned %s, the scan from 0 returns %s"
          (Option.fold ~none:"None" ~some:string_of_int got)
          (Option.fold ~none:"None" ~some:string_of_int (scan accepted))
      else if k_star < Solver.grid_steps && !calls > abs (k_star - start) + 2
      then
        QCheck.Test.fail_reportf "%d calls for k* = %d from %d" !calls k_star
          start
      else true)

(* Arbitrary accepted sets: empty ones often, sparse and dense ones. *)
let prop_grid_any_set =
  QCheck.Test.make
    ~name:"grid search returns an accepted index, None only if none is"
    ~count:(Generators.count 500)
    QCheck.(
      make
        ~print:
          Print.(
            pair int (fun a ->
                String.concat ""
                  (Array.to_list (Array.map (fun b -> if b then "1" else "0") a))))
        Gen.(
          pair grid_index
            (let* density =
               frequency [ (1, return 0.0); (4, float_bound_inclusive 1.0) ]
             in
             array_repeat Solver.grid_steps
               (map (fun u -> u < density) (float_bound_exclusive 1.0)))))
    (fun (start, set) ->
      match Solver.grid_search ~start (fun k -> set.(k)) with
      | Some k -> set.(k)
      | None -> Array.for_all not set)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_stationary; prop_warm_matches_cold; prop_pcg_same_optimum ]
  @ [ Alcotest.test_case "seed 6004 converges" `Quick test_seed_6004 ]
  @ [
      Alcotest.test_case "concurrent big-tape solves" `Quick
        test_concurrent_big_tape_solves;
      QCheck_alcotest.to_alcotest prop_grid_upward_closed;
      QCheck_alcotest.to_alcotest prop_grid_any_set;
    ]
