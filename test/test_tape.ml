(* Tests for the flat-tape compiler (Convex.Tape): randomized
   cross-checks against the reference DAG-walking Expr.eval /
   Expr.eval_grad, central finite differences on the smoothed
   objective, the zero-allocation guarantee of a warm tape, and
   end-to-end checks of Allocation.solve, which runs on the tape,
   against the Expr reference. *)

open Convex
module G = Mdg.Graph
module P = Costmodel.Params

let nvars = 3

let rel_close ?(eps = 1e-9) a b =
  Float.abs (a -. b) <= eps *. (1.0 +. Float.max (Float.abs a) (Float.abs b))

(* ------------------------------------------------------------------ *)
(* Random posynomial/max DAGs with sharing                             *)
(* ------------------------------------------------------------------ *)

(* Leaves are monomial terms (plus occasional constants); interior
   nodes combine *previously generated* nodes with sum/max/scale, so
   the result is a genuine DAG with shared subexpressions, nested
   maxima and foldable constant subtrees — the shapes [Tape.compile]
   has to get right. *)
let random_dag_gen =
  let open QCheck.Gen in
  let term_gen =
    let* c = float_range 0.1 5.0 in
    let* k = int_range 1 nvars in
    let* expts =
      list_size (return k)
        (pair (int_range 0 (nvars - 1)) (float_range (-2.0) 2.0))
    in
    return (Expr.term ~coeff:c ~expts)
  in
  let leaf =
    frequency [ (4, term_gen); (1, map Expr.const (float_range 0.0 3.0)) ]
  in
  let combine pool =
    let* op = int_range 0 3 in
    let* picks = list_size (int_range 2 4) (oneofl pool) in
    match op with
    | 0 -> return (Expr.sum picks)
    | 1 -> return (Expr.max_ picks)
    | 2 ->
        let* s = float_range 0.0 2.0 in
        return (Expr.scale s (List.hd picks))
    | _ ->
        (* A sum with a constant summand exercises bias folding. *)
        let* c = float_range 0.0 2.0 in
        return (Expr.sum (Expr.const c :: picks))
  in
  let* leaves = list_size (int_range 3 6) leaf in
  let* rounds = int_range 2 6 in
  let rec grow pool rounds =
    if rounds = 0 then return (Expr.sum pool)
    else
      let* e = combine pool in
      grow (e :: pool) (rounds - 1)
  in
  grow leaves rounds

let point_gen =
  QCheck.Gen.(array_size (return nvars) (float_range (-1.5) 1.5))

let mus = [ 0.0; 0.05; 1.0 ]

let prop_tape_eval_matches_expr =
  QCheck.Test.make ~name:"tape eval == Expr.eval (random DAGs, all mu)"
    ~count:300
    (QCheck.make QCheck.Gen.(pair random_dag_gen point_gen))
    (fun (e, x) ->
      let tape = Tape.compile e in
      let ws = Tape.create_workspace tape in
      List.for_all
        (fun mu -> rel_close (Expr.eval ~mu e x) (Tape.eval ~mu tape ws x))
        mus)

let prop_tape_grad_matches_expr =
  QCheck.Test.make ~name:"tape eval_grad == Expr.eval_grad (random DAGs)"
    ~count:300
    (QCheck.make QCheck.Gen.(pair random_dag_gen point_gen))
    (fun (e, x) ->
      let tape = Tape.compile e in
      let ws = Tape.create_workspace tape in
      let grad = Array.make nvars 0.0 in
      List.for_all
        (fun mu ->
          let v_ref, g_ref = Expr.eval_grad ~mu e x in
          let v = Tape.eval_grad ~mu tape ws ~x ~grad in
          rel_close v_ref v
          && Array.for_all2 (fun a b -> rel_close a b) g_ref grad)
        mus)

let prop_tape_grad_matches_finite_difference =
  (* On the smoothed (mu > 0, C^1) objective the tape gradient must
     agree with central differences. *)
  QCheck.Test.make ~name:"tape gradient vs central finite differences"
    ~count:100
    (QCheck.make QCheck.Gen.(pair random_dag_gen point_gen))
    (fun (e, x) ->
      let mu = 0.1 in
      let tape = Tape.compile e in
      let ws = Tape.create_workspace tape in
      let grad = Array.make nvars 0.0 in
      ignore (Tape.eval_grad ~mu tape ws ~x ~grad);
      let h = 1e-6 in
      let ok = ref true in
      for i = 0 to nvars - 1 do
        let xp = Array.copy x and xm = Array.copy x in
        xp.(i) <- xp.(i) +. h;
        xm.(i) <- xm.(i) -. h;
        let fd = (Tape.eval ~mu tape ws xp -. Tape.eval ~mu tape ws xm) /. (2.0 *. h) in
        if not (rel_close ~eps:1e-3 fd grad.(i)) then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Structure: folding, sizes, validation                               *)
(* ------------------------------------------------------------------ *)

let test_tape_constant_folding () =
  (* A constant subtree (through scale/sum) collapses; a constant
     summand is fused into the sum's bias instead of keeping its own
     slot.  Maxima are never folded — smoothing makes even a constant
     max depend on the evaluation-time mu. *)
  let const_subtree =
    Expr.scale 2.0 (Expr.sum [ Expr.const 1.0; Expr.const 3.0 ])
  in
  let t = Expr.term ~coeff:1.0 ~expts:[ (0, 1.0) ] in
  let e = Expr.sum [ const_subtree; t; Expr.const 0.5 ] in
  let tape = Tape.compile e in
  (* Slots: the term and the sum — the constants all folded away. *)
  Alcotest.(check int) "slots" 2 (Tape.num_slots tape);
  let ws = Tape.create_workspace tape in
  let x = [| 0.3 |] in
  Alcotest.(check (float 1e-12))
    "folded value" (Expr.eval e x) (Tape.eval tape ws x);
  (* A constant max keeps its slots and smooths like the reference. *)
  let cm = Expr.sum [ Expr.max_ [ Expr.const 1.0; Expr.const 3.0 ]; t ] in
  let ctape = Tape.compile cm in
  let cws = Tape.create_workspace ctape in
  List.iter
    (fun mu ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "const max at mu=%g" mu)
        (Expr.eval ~mu cm x)
        (Tape.eval ~mu ctape cws x))
    [ 0.0; 0.5 ]

let test_tape_fully_constant () =
  let e = Expr.sum [ Expr.const 1.0; Expr.scale 3.0 (Expr.const 2.0) ] in
  let tape = Tape.compile e in
  Alcotest.(check int) "one slot" 1 (Tape.num_slots tape);
  Alcotest.(check int) "no vars" 0 (Tape.n_vars tape);
  let ws = Tape.create_workspace tape in
  Alcotest.(check (float 1e-12)) "value" 7.0 (Tape.eval tape ws [||])

let test_tape_dag_sharing_compiles_once () =
  let shared = Expr.term ~coeff:1.0 ~expts:[ (0, 1.0) ] in
  let e = Expr.sum [ Expr.scale 2.0 shared; Expr.scale 3.0 shared ] in
  let tape = Tape.compile e in
  (* term + two scales + sum = 4 slots, not 5 (shared term emitted once). *)
  Alcotest.(check int) "slots" 4 (Tape.num_slots tape)

let test_tape_rejects_short_x () =
  let e = Expr.term ~coeff:1.0 ~expts:[ (1, 1.0) ] in
  let tape = Tape.compile e in
  let ws = Tape.create_workspace tape in
  Alcotest.check_raises "short x"
    (Invalid_argument "Tape.eval: tape uses variable 1 but x has dim 1")
    (fun () -> ignore (Tape.eval tape ws [| 0.0 |]))

let test_tape_subgradient_at_kink_matches_expr () =
  (* At an exact tie the subgradient must pick the same branch as the
     reference (first maximising branch in construction order). *)
  let a = Expr.term ~coeff:1.0 ~expts:[ (0, 1.0) ] in
  let b = Expr.term ~coeff:1.0 ~expts:[ (0, -1.0) ] in
  let m = Expr.max_ [ a; b ] in
  let x = [| 0.0 |] in
  let _, g_ref = Expr.eval_grad m x in
  let tape = Tape.compile m in
  let ws = Tape.create_workspace tape in
  let grad = Array.make 1 0.0 in
  ignore (Tape.eval_grad tape ws ~x ~grad);
  Alcotest.(check (float 1e-12)) "same branch" g_ref.(0) grad.(0)

(* ------------------------------------------------------------------ *)
(* Zero allocation on the warm path                                    *)
(* ------------------------------------------------------------------ *)

let test_tape_warm_gradient_no_alloc () =
  (* A warm tape gradient must not allocate per DAG node or per
     variable (the reference implementation allocates an n-vector per
     node).  The only per-call heap traffic permitted is the boxed
     float return and optional-argument wrapper at the API boundary —
     a constant handful of words, independent of tape size. *)
  let e =
    Expr.sum
      (List.init 20 (fun i ->
           Expr.max_
             [
               Expr.term ~coeff:(1.0 +. float_of_int i)
                 ~expts:[ (i mod nvars, 1.0); ((i + 1) mod nvars, -0.5) ];
               Expr.term ~coeff:0.5 ~expts:[ ((i + 2) mod nvars, 2.0) ];
               Expr.const (float_of_int i);
             ]))
  in
  let tape = Tape.compile e in
  let ws = Tape.create_workspace tape in
  let x = [| 0.2; -0.4; 0.6 |] in
  let grad = Array.make nvars 0.0 in
  (* Warm up both code paths. *)
  ignore (Tape.eval_grad tape ws ~x ~grad);
  ignore (Tape.eval_grad ~mu:0.01 tape ws ~x ~grad);
  let calls = 200 in
  let words_before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Tape.eval_grad tape ws ~x ~grad);
    ignore (Tape.eval_grad ~mu:0.01 tape ws ~x ~grad);
    ignore (Tape.eval ~mu:0.01 tape ws x)
  done;
  let words = Gc.minor_words () -. words_before in
  let per_call = words /. float_of_int (3 * calls) in
  if per_call >= 16.0 then
    Alcotest.failf "warm tape call allocates %.1f words per call" per_call

(* ------------------------------------------------------------------ *)
(* End-to-end: the tape solve against the Expr reference               *)
(* ------------------------------------------------------------------ *)

let seed_params kernels =
  let p = P.make ~transfer:P.cm5_transfer in
  List.iter
    (fun k ->
      match k with
      | G.Matrix_multiply _ -> P.set_processing p k { alpha = 0.12; tau = 0.3 }
      | G.Matrix_add _ | G.Matrix_init _ ->
          P.set_processing p k { alpha = 0.07; tau = 0.004 }
      | G.Synthetic _ | G.Dummy -> ())
    kernels;
  p

(* The same checks as the solver property suite's stationarity
   property, on the paper's programs: Φ, A_p and C_p equal the Expr
   reference at the returned allocation, and no projected-gradient step
   of the mu_final-smoothed Expr objective descends by more than 1e-5
   relative. *)
let check_against_expr name g kernels =
  let params = seed_params kernels in
  let g = G.normalise g in
  let procs = 64 in
  let r = Core.Allocation.solve params g ~procs in
  List.iter
    (fun m -> Alcotest.failf "%s: %s" name m)
    (Generators.expr_mismatches params g ~procs r);
  let descent = Generators.mu_final_descent params g ~procs r in
  if descent > 1e-5 then
    Alcotest.failf "%s: %.3g relative descent left at mu_final" name descent

let test_solve_vs_expr_complex_mm () =
  let g, _ = Kernels.Complex_mm.graph ~n:64 () in
  check_against_expr "complex-mm" g (Kernels.Complex_mm.kernels ~n:64)

let test_solve_vs_expr_strassen () =
  let g, _ = Kernels.Strassen_mdg.graph ~n:128 () in
  check_against_expr "strassen" g (Kernels.Strassen_mdg.kernels ~n:128)

let test_allocation_objective_tape_smoke () =
  (* Cheap consistency smoke on the real allocation objective: tape
     and reference evaluate identically at random feasible points. *)
  let g, _ = Kernels.Strassen_mdg.graph ~n:128 () in
  let g = G.normalise g in
  let params = seed_params (Kernels.Strassen_mdg.kernels ~n:128) in
  let obj = Core.Allocation.objective params g ~procs:64 in
  let tape = Tape.compile obj in
  let ws = Tape.create_workspace tape in
  let n = G.num_nodes g in
  let grad = Array.make n 0.0 in
  let rng = Random.State.make [| 1994 |] in
  for _ = 1 to 20 do
    let x =
      Array.init n (fun _ -> Random.State.float rng (log 64.0))
    in
    List.iter
      (fun mu ->
        let v_ref, g_ref = Expr.eval_grad ~mu obj x in
        let v = Tape.eval_grad ~mu tape ws ~x ~grad in
        if not (rel_close v_ref v) then
          Alcotest.failf "objective value mismatch at mu=%g" mu;
        Array.iteri
          (fun i gi ->
            if not (rel_close ~eps:1e-8 gi grad.(i)) then
              Alcotest.failf "objective gradient mismatch at mu=%g, var %d" mu i)
          g_ref)
      [ 0.0; 1e-3 ]
  done

let suite =
  [
    QCheck_alcotest.to_alcotest prop_tape_eval_matches_expr;
    QCheck_alcotest.to_alcotest prop_tape_grad_matches_expr;
    QCheck_alcotest.to_alcotest prop_tape_grad_matches_finite_difference;
    Alcotest.test_case "tape folds constants" `Quick test_tape_constant_folding;
    Alcotest.test_case "tape folds fully-constant DAGs" `Quick
      test_tape_fully_constant;
    Alcotest.test_case "tape compiles shared nodes once" `Quick
      test_tape_dag_sharing_compiles_once;
    Alcotest.test_case "tape rejects short x" `Quick test_tape_rejects_short_x;
    Alcotest.test_case "tape subgradient at kink matches Expr" `Quick
      test_tape_subgradient_at_kink_matches_expr;
    Alcotest.test_case "warm tape gradient allocates nothing" `Quick
      test_tape_warm_gradient_no_alloc;
    Alcotest.test_case "solve vs Expr reference: complex-mm" `Quick
      test_solve_vs_expr_complex_mm;
    Alcotest.test_case "solve vs Expr reference: strassen" `Slow
      test_solve_vs_expr_strassen;
    Alcotest.test_case "allocation objective: tape smoke" `Quick
      test_allocation_objective_tape_smoke;
  ]
