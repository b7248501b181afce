(* Tests for the convex substrate: expression DAGs, posynomials and the
   projected-gradient solver.  The central properties are the ones the
   paper's formulation rests on: posynomials are convex after the log
   substitution, smoothed maxima upper-bound true maxima, and the
   solver finds global minima of convex objectives. *)

open Convex
module Vec = Numeric.Vec

let check_close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Expr                                                                *)
(* ------------------------------------------------------------------ *)

let test_expr_const_term () =
  let e = Expr.term ~coeff:2.0 ~expts:[ (0, 1.0); (1, -1.0) ] in
  (* 2 * p0 / p1 at p = (e, e^2) -> 2/e. *)
  check_close "term value" (2.0 /. exp 1.0) (Expr.eval e [| 1.0; 2.0 |]);
  check_close "const" 3.5 (Expr.eval (Expr.const 3.5) [||])

let test_expr_eval_p () =
  let e = Expr.term ~coeff:4.0 ~expts:[ (0, -1.0) ] in
  check_close "4/p at p=8" 0.5 (Expr.eval_p e [| 8.0 |])

let test_expr_merge_duplicate_vars () =
  (* p0^1 * p0^-1 collapses to a constant. *)
  let e = Expr.term ~coeff:5.0 ~expts:[ (0, 1.0); (0, -1.0) ] in
  check_close "collapsed" 5.0 (Expr.eval e [| 123.0 |]);
  Alcotest.(check int) "no variables" (-1) (Expr.max_var e)

let test_expr_sum_max () =
  let a = Expr.const 1.0 and b = Expr.const 3.0 in
  check_close "sum" 4.0 (Expr.eval (Expr.sum [ a; b ]) [||]);
  check_close "max" 3.0 (Expr.eval (Expr.max_ [ a; b ]) [||]);
  check_close "scale" 6.0 (Expr.eval (Expr.scale 2.0 b) [||])

let test_expr_smoothed_max_bounds () =
  let a = Expr.term ~coeff:1.0 ~expts:[ (0, 1.0) ] in
  let b = Expr.term ~coeff:1.0 ~expts:[ (0, -1.0) ] in
  let m = Expr.max_ [ a; b ] in
  let x = [| 0.7 |] in
  let exact = Expr.eval m x in
  let mu = 0.05 in
  let smooth = Expr.eval ~mu m x in
  Alcotest.(check bool) "smooth >= exact" true (smooth >= exact);
  Alcotest.(check bool)
    "smooth <= exact + mu ln 2" true
    (smooth <= exact +. (mu *. log 2.0) +. 1e-12)

let test_expr_gradient_matches_finite_difference () =
  let e =
    Expr.sum
      [
        Expr.term ~coeff:2.0 ~expts:[ (0, 1.5); (1, -0.5) ];
        Expr.max_
          [
            Expr.term ~coeff:1.0 ~expts:[ (0, -1.0) ];
            Expr.term ~coeff:0.3 ~expts:[ (1, 2.0) ];
          ];
      ]
  in
  let x = [| 0.4; 0.9 |] in
  let mu = 0.01 in
  let _, g = Expr.eval_grad ~mu e x in
  let h = 1e-6 in
  for i = 0 to 1 do
    let xp = Array.copy x and xm = Array.copy x in
    xp.(i) <- xp.(i) +. h;
    xm.(i) <- xm.(i) -. h;
    let fd = (Expr.eval ~mu e xp -. Expr.eval ~mu e xm) /. (2.0 *. h) in
    check_close ~eps:1e-4 (Printf.sprintf "dx%d" i) fd g.(i)
  done

let test_expr_subgradient_at_kink () =
  (* At a kink the exact-max gradient must match one branch. *)
  let a = Expr.term ~coeff:1.0 ~expts:[ (0, 1.0) ] in
  let b = Expr.term ~coeff:1.0 ~expts:[ (0, -1.0) ] in
  let m = Expr.max_ [ a; b ] in
  let _, g = Expr.eval_grad m [| 0.0 |] in
  Alcotest.(check bool) "one-sided gradient" true
    (Float.abs (g.(0) -. 1.0) < 1e-9 || Float.abs (g.(0) +. 1.0) < 1e-9)

let test_expr_dag_sharing () =
  (* A diamond-shaped DAG evaluates each shared node once; num_nodes
     counts distinct nodes. *)
  let shared = Expr.term ~coeff:1.0 ~expts:[ (0, 1.0) ] in
  let left = Expr.scale 2.0 shared in
  let right = Expr.scale 3.0 shared in
  let top = Expr.sum [ left; right ] in
  Alcotest.(check int) "node count" 4 (Expr.num_nodes top);
  check_close "value" 5.0 (Expr.eval top [| 0.0 |])

let test_expr_validation () =
  Alcotest.check_raises "negative const"
    (Invalid_argument "Expr.const: negative or non-finite constant") (fun () ->
      ignore (Expr.const (-1.0)));
  Alcotest.check_raises "zero coeff"
    (Invalid_argument "Expr.term: coefficient must be positive and finite")
    (fun () -> ignore (Expr.term ~coeff:0.0 ~expts:[]));
  Alcotest.check_raises "empty max" (Invalid_argument "Expr.max_: empty list")
    (fun () -> ignore (Expr.max_ []));
  Alcotest.check_raises "short x"
    (Invalid_argument
       "Expr.eval: expression uses variable 1 but x has dim 1") (fun () ->
      ignore (Expr.eval (Expr.term ~coeff:1.0 ~expts:[ (1, 1.0) ]) [| 0.0 |]))

(* Convexity in x: midpoint property for random expressions. *)
let random_expr_gen =
  let open QCheck.Gen in
  let term_gen =
    let* c = float_range 0.1 5.0 in
    let* a0 = float_range (-2.0) 2.0 in
    let* a1 = float_range (-2.0) 2.0 in
    return (Expr.term ~coeff:c ~expts:[ (0, a0); (1, a1) ])
  in
  let* ts = list_size (int_range 1 4) term_gen in
  let* ms = list_size (int_range 1 3) term_gen in
  return (Expr.sum [ Expr.sum ts; Expr.max_ ms ])

let prop_expr_convex_in_x =
  QCheck.Test.make ~name:"expressions are convex in x (midpoint)" ~count:200
    QCheck.(
      make
        Gen.(
          triple random_expr_gen
            (pair (float_range (-1.5) 1.5) (float_range (-1.5) 1.5))
            (pair (float_range (-1.5) 1.5) (float_range (-1.5) 1.5))))
    (fun (e, (x0, x1), (y0, y1)) ->
      let x = [| x0; x1 |] and y = [| y0; y1 |] in
      let mid = [| (x0 +. y0) /. 2.0; (x1 +. y1) /. 2.0 |] in
      let fx = Expr.eval e x and fy = Expr.eval e y in
      let fm = Expr.eval e mid in
      fm <= ((fx +. fy) /. 2.0) +. (1e-9 *. (1.0 +. Float.abs fx +. Float.abs fy)))

(* ------------------------------------------------------------------ *)
(* Posynomial                                                          *)
(* ------------------------------------------------------------------ *)

let test_posy_eval () =
  let p =
    Posynomial.sum
      [ Posynomial.monomial 2.0 [ (0, 1.0) ]; Posynomial.monomial 3.0 [ (0, -1.0) ] ]
  in
  (* 2p + 3/p at p = 3 -> 7. *)
  check_close "eval" 7.0 (Posynomial.eval p [| 3.0 |])

let test_posy_algebra () =
  let x = Posynomial.var 0 in
  let one = Posynomial.constant 1.0 in
  let p = Posynomial.mul (Posynomial.add x one) (Posynomial.add x one) in
  (* (p+1)^2 = p^2 + 2p + 1 at p=2 -> 9. *)
  check_close "square" 9.0 (Posynomial.eval p [| 2.0 |]);
  Alcotest.(check int) "3 monomials" 3 (List.length (Posynomial.monomials p));
  let p3 = Posynomial.pow (Posynomial.add x one) 3 in
  check_close "cube" 27.0 (Posynomial.eval p3 [| 2.0 |])

let test_posy_merge () =
  (* p + p merges into one monomial 2p. *)
  let x = Posynomial.var 0 in
  let p = Posynomial.add x x in
  Alcotest.(check int) "merged" 1 (List.length (Posynomial.monomials p));
  check_close "value" 10.0 (Posynomial.eval p [| 5.0 |])

let test_posy_mul_var () =
  let p = Posynomial.monomial 4.0 [ (0, -1.0) ] in
  let q = Posynomial.mul_var 0 1.0 p in
  Alcotest.(check bool) "constant" true (Posynomial.is_constant q);
  check_close "value" 4.0 (Posynomial.eval q [| 7.0 |])

let test_posy_to_expr_consistent () =
  let p =
    Posynomial.sum
      [
        Posynomial.monomial 2.0 [ (0, 1.0); (1, -0.5) ];
        Posynomial.monomial 0.7 [ (1, 2.0) ];
        Posynomial.constant 1.2;
      ]
  in
  let e = Posynomial.to_expr p in
  let point = [| 2.0; 3.0 |] in
  check_close "posy vs expr" (Posynomial.eval p point) (Expr.eval_p e point)

let test_posy_degree () =
  let p =
    Posynomial.sum
      [ Posynomial.monomial 1.0 [ (0, 2.0) ]; Posynomial.monomial 1.0 [ (0, -1.0) ] ]
  in
  let lo, hi = Posynomial.degree_in 0 p in
  check_close "lo" (-1.0) lo;
  check_close "hi" 2.0 hi

let test_posy_rejects_negative () =
  Alcotest.check_raises "negative coeff"
    (Invalid_argument "Posynomial.of_monomials: non-positive coefficient")
    (fun () -> ignore (Posynomial.monomial (-1.0) []))

(* ------------------------------------------------------------------ *)
(* Solver                                                              *)
(* ------------------------------------------------------------------ *)

let box n lo hi = (Vec.create n lo, Vec.create n hi)

let test_solver_quadratic_like () =
  (* minimise e^x + e^-x : minimum at x = 0, value 2. *)
  let e =
    Expr.sum
      [ Expr.term ~coeff:1.0 ~expts:[ (0, 1.0) ]; Expr.term ~coeff:1.0 ~expts:[ (0, -1.0) ] ]
  in
  let lo, hi = box 1 (-3.0) 3.0 in
  let r = Solver.solve { objective = e; lo; hi } in
  check_close ~eps:1e-5 "argmin" 0.0 r.x.(0);
  check_close ~eps:1e-6 "min value" 2.0 r.value

let test_solver_boundary () =
  (* minimise e^x on [0, ln 4]: minimum at the lower boundary. *)
  let e = Expr.term ~coeff:1.0 ~expts:[ (0, 1.0) ] in
  let lo, hi = box 1 0.0 (log 4.0) in
  let r = Solver.solve { objective = e; lo; hi } in
  check_close ~eps:1e-6 "argmin at boundary" 0.0 r.x.(0);
  check_close ~eps:1e-6 "value" 1.0 r.value

let test_solver_max_objective () =
  (* minimise max(e^x, e^-x, 2·e^(x-1)): solve by scanning. *)
  let e =
    Expr.max_
      [
        Expr.term ~coeff:1.0 ~expts:[ (0, 1.0) ];
        Expr.term ~coeff:1.0 ~expts:[ (0, -1.0) ];
        Expr.term ~coeff:2.0 ~expts:[ (0, 1.0) ];
      ]
  in
  let lo, hi = box 1 (-2.0) 2.0 in
  let r = Solver.solve { objective = e; lo; hi } in
  (* Brute-force scan for reference. *)
  let best = ref infinity in
  for k = 0 to 40_000 do
    let x = -2.0 +. (4.0 *. float_of_int k /. 40_000.0) in
    best := Float.min !best (Expr.eval e [| x |])
  done;
  Alcotest.(check bool)
    "within 1e-5 of scanned optimum" true
    (r.value <= !best +. 1e-5)

let test_solver_two_vars () =
  (* minimise e^(x0) + e^(x1) + 4 e^(-x0-x1); stationary point where
     e^(x0) = e^(x1) = 2 e^(-2 x0)  =>  x0 = x1 = (ln 4)/3. *)
  let e =
    Expr.sum
      [
        Expr.term ~coeff:1.0 ~expts:[ (0, 1.0) ];
        Expr.term ~coeff:1.0 ~expts:[ (1, 1.0) ];
        Expr.term ~coeff:4.0 ~expts:[ (0, -1.0); (1, -1.0) ];
      ]
  in
  let lo, hi = box 2 (-4.0) 4.0 in
  let r = Solver.solve { objective = e; lo; hi } in
  let expected = log 4.0 /. 3.0 in
  check_close ~eps:1e-4 "x0" expected r.x.(0);
  check_close ~eps:1e-4 "x1" expected r.x.(1)

let test_solver_respects_x0_and_box () =
  let e = Expr.term ~coeff:1.0 ~expts:[ (0, -1.0) ] in
  let lo, hi = box 1 0.0 2.0 in
  let r = Solver.solve ~x0:[| 50.0 |] { objective = e; lo; hi } in
  Alcotest.(check bool) "inside box" true (r.x.(0) >= 0.0 && r.x.(0) <= 2.0);
  check_close ~eps:1e-6 "pushed to upper bound" 2.0 r.x.(0)

let test_solver_empty_box_rejected () =
  let e = Expr.const 1.0 in
  Alcotest.check_raises "empty box" (Invalid_argument "Solver.solve: empty box")
    (fun () ->
      ignore (Solver.solve { objective = e; lo = [| 1.0 |]; hi = [| 0.0 |] }))

(* A one-variable max: the anneal has work to do, so a temperature
   that never reaches [mu_final] used to spin in it forever. *)
let kinked_max =
  Expr.max_
    [
      Expr.term ~coeff:1.0 ~expts:[ (0, 1.0) ];
      Expr.term ~coeff:1.0 ~expts:[ (0, -1.0) ];
    ]

(* Both solve entry points must raise [msg entry] before running a
   stage. *)
let check_both_reject ?(objective = kinked_max) ?options ?x0 what msg ~lo ~hi
    =
  Alcotest.check_raises (what ^ ", solve")
    (Invalid_argument (msg "Solver.solve")) (fun () ->
      ignore (Solver.solve ?options ?x0 { objective; lo; hi }));
  Alcotest.check_raises (what ^ ", solve_compiled")
    (Invalid_argument (msg "Solver.solve_compiled")) (fun () ->
      let c = Solver.compile objective in
      ignore (Solver.solve_compiled ?options ?x0 c ~lo ~hi))

(* NaN or +inf mu_init, and NaN or negative mu_final, used to hang the
   anneal; 0 and non-finite tol are rejected alike. *)
let test_solver_rejects_options () =
  let lo, hi = box 1 (-2.0) 2.0 in
  List.iter
    (fun (field, with_value) ->
      let msg entry =
        Printf.sprintf "%s: options.%s must be positive and finite" entry field
      in
      List.iter
        (fun v ->
          check_both_reject ~options:(with_value v)
            (Printf.sprintf "%s = %g" field v)
            msg ~lo ~hi)
        [ 0.0; -1e-6; Float.nan; Float.infinity ])
    [
      ("tol", fun v -> { Solver.default_options with tol = v });
      ("mu_init", fun v -> { Solver.default_options with mu_init = v });
      ("mu_final", fun v -> { Solver.default_options with mu_final = v });
    ]

(* A NaN bound, a NaN x0 and a box whose centre is NaN each made the
   scaled temperatures NaN, and the anneal never ended. *)
let test_solver_rejects_nan_start () =
  let lo, hi = box 1 (-2.0) 2.0 in
  let nan_bound entry = entry ^ ": NaN bound" in
  check_both_reject "NaN lo" nan_bound ~lo:[| Float.nan |] ~hi;
  check_both_reject "NaN hi" nan_bound ~lo ~hi:[| Float.nan |];
  check_both_reject ~x0:[| Float.nan |] "NaN x0"
    (fun entry -> entry ^ ": x0 has a NaN coordinate")
    ~lo ~hi;
  check_both_reject "unbounded box"
    (fun entry -> entry ^ ": the box centre has a NaN coordinate")
    ~lo:[| Float.neg_infinity |] ~hi:[| Float.infinity |]

(* A finite mu_init whose product with the start value overflows made
   the first temperature +inf, and the anneal never ended: at f = 1e10
   that is mu_init = 1e300 (1e290 still solves, in 150 stages). *)
let test_solver_rejects_overflowing_temperature () =
  let lo, hi = box 1 (-2.0) 2.0 in
  let objective =
    Expr.max_
      [
        Expr.term ~coeff:1e10 ~expts:[ (0, 1.0) ];
        Expr.term ~coeff:1e10 ~expts:[ (0, -1.0) ];
      ]
  in
  let msg field entry =
    Printf.sprintf "%s: options.%s scaled by the start value is not finite"
      entry field
  in
  check_both_reject ~objective
    ~options:{ Solver.default_options with mu_init = 1e300 }
    "mu_init = 1e300" (msg "mu_init") ~lo ~hi;
  check_both_reject ~objective
    ~options:{ Solver.default_options with mu_final = 1e300 }
    "mu_final = 1e300" (msg "mu_final") ~lo ~hi;
  let r =
    Solver.solve
      ~options:{ Solver.default_options with mu_init = 1e290 }
      { objective; lo; hi }
  in
  check_close ~eps:1e-4 "1e290 still solves" 0.0 r.x.(0)

let prop_solver_beats_random_points =
  (* Global optimality: no random feasible point does better. *)
  QCheck.Test.make ~name:"solver value <= random feasible evaluations" ~count:50
    QCheck.(
      make
        Gen.(
          pair random_expr_gen
            (list_size (return 20)
               (pair (float_range (-1.0) 1.0) (float_range (-1.0) 1.0)))))
    (fun (e, points) ->
      let lo = [| -1.0; -1.0 |] and hi = [| 1.0; 1.0 |] in
      let r = Solver.solve { objective = e; lo; hi } in
      List.for_all
        (fun (x0, x1) ->
          r.value <= Expr.eval e [| x0; x1 |] +. (1e-5 *. (1.0 +. r.value)))
        points)

let suite =
  [
    Alcotest.test_case "expr constants and terms" `Quick test_expr_const_term;
    Alcotest.test_case "expr eval in p-space" `Quick test_expr_eval_p;
    Alcotest.test_case "expr merges duplicate vars" `Quick
      test_expr_merge_duplicate_vars;
    Alcotest.test_case "expr sum/max/scale" `Quick test_expr_sum_max;
    Alcotest.test_case "expr smoothed max bounds" `Quick
      test_expr_smoothed_max_bounds;
    Alcotest.test_case "expr gradient vs finite differences" `Quick
      test_expr_gradient_matches_finite_difference;
    Alcotest.test_case "expr subgradient at kink" `Quick
      test_expr_subgradient_at_kink;
    Alcotest.test_case "expr DAG sharing" `Quick test_expr_dag_sharing;
    Alcotest.test_case "expr validation" `Quick test_expr_validation;
    QCheck_alcotest.to_alcotest prop_expr_convex_in_x;
    Alcotest.test_case "posynomial evaluation" `Quick test_posy_eval;
    Alcotest.test_case "posynomial algebra" `Quick test_posy_algebra;
    Alcotest.test_case "posynomial monomial merging" `Quick test_posy_merge;
    Alcotest.test_case "posynomial mul_var" `Quick test_posy_mul_var;
    Alcotest.test_case "posynomial -> expr consistency" `Quick
      test_posy_to_expr_consistent;
    Alcotest.test_case "posynomial degree range" `Quick test_posy_degree;
    Alcotest.test_case "posynomial rejects negatives" `Quick
      test_posy_rejects_negative;
    Alcotest.test_case "solver: 1-var interior optimum" `Quick
      test_solver_quadratic_like;
    Alcotest.test_case "solver: boundary optimum" `Quick test_solver_boundary;
    Alcotest.test_case "solver: nonsmooth max objective" `Quick
      test_solver_max_objective;
    Alcotest.test_case "solver: 2-var interior optimum" `Quick
      test_solver_two_vars;
    Alcotest.test_case "solver: projection of x0" `Quick
      test_solver_respects_x0_and_box;
    Alcotest.test_case "solver: rejects empty box" `Quick
      test_solver_empty_box_rejected;
    QCheck_alcotest.to_alcotest prop_solver_beats_random_points;
    Alcotest.test_case "solver: rejects options not positive and finite"
      `Quick test_solver_rejects_options;
    Alcotest.test_case "solver: rejects a NaN bound or start point" `Quick
      test_solver_rejects_nan_start;
    Alcotest.test_case "solver: rejects a temperature that overflows" `Quick
      test_solver_rejects_overflowing_temperature;
  ]
