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
let dag_gen ~leaves term_gen =
  let open QCheck.Gen in
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
  let* leaves = list_size leaves leaf in
  let* rounds = int_range 2 6 in
  let rec grow pool rounds =
    if rounds = 0 then return (Expr.sum pool)
    else
      let* e = combine pool in
      grow (e :: pool) (rounds - 1)
  in
  grow leaves rounds

let random_dag_gen =
  let open QCheck.Gen in
  dag_gen ~leaves:(int_range 3 6)
    (let* c = float_range 0.1 5.0 in
     let* k = int_range 1 nvars in
     let* expts =
       list_size (return k)
         (pair (int_range 0 (nvars - 1)) (float_range (-2.0) 2.0))
     in
     return (Expr.term ~coeff:c ~expts))

(* Monomial-heavy DAGs: exponents from {±0.5, ±1} over the three
   variables leave few distinct monomials, so many terms share one
   exponent segment under different coefficients. *)
let monomial_dag_gen =
  let open QCheck.Gen in
  dag_gen ~leaves:(int_range 6 14)
    (let* c = float_range 0.1 5.0 in
     let* expts =
       list_size (int_range 1 2)
         (pair (int_range 0 (nvars - 1)) (oneofl [ -1.0; -0.5; 0.5; 1.0 ]))
     in
     return (Expr.term ~coeff:c ~expts))

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

(* The same DAG with every term given its own monomial: an extra
   variable [nvars], read at 0, with a distinct exponent per term node.
   It is stored first in each segment and adds +0 to the exponent sum,
   so every value, gradient and HVP coordinate below [nvars] is the
   pooled tape's, bit for bit, if pooling is invisible. *)
let unpooled_twin e =
  let memo = Hashtbl.create 64 in
  let fresh = ref 0 in
  let rec go e =
    match Hashtbl.find_opt memo (Expr.id e) with
    | Some e' -> e'
    | None ->
        let e' =
          match Expr.view e with
          | Expr.V_const c -> Expr.const c
          | Expr.V_term { coeff; expts } ->
              incr fresh;
              Expr.term ~coeff
                ~expts:((nvars, float_of_int !fresh) :: Array.to_list expts)
          | Expr.V_sum es -> Expr.sum (List.map go (Array.to_list es))
          | Expr.V_max es -> Expr.max_ (List.map go (Array.to_list es))
          | Expr.V_scale (f, e') -> Expr.scale f (go e')
        in
        Hashtbl.add memo (Expr.id e) e';
        e'
  in
  go e

let prop_monomial_sharing_invisible =
  QCheck.Test.make
    ~name:"shared monomials: tape == Expr, == unshared twin bit for bit"
    ~count:300
    (QCheck.make QCheck.Gen.(triple monomial_dag_gen point_gen point_gen))
    (fun (e, x, dx) ->
      let tape = Tape.compile e in
      let ws = Tape.create_workspace tape in
      let twin = Tape.compile (unpooled_twin e) in
      let tws = Tape.create_workspace twin in
      let x' = Array.append x [| 0.0 |] and dx' = Array.append dx [| 0.0 |] in
      let bits = Int64.bits_of_float in
      let same a b = Int64.equal (bits a) (bits b) in
      let same_prefix a b =
        Array.for_all Fun.id (Array.init nvars (fun i -> same a.(i) b.(i)))
      in
      let grad = Array.make nvars 0.0 and hvp = Array.make nvars 0.0 in
      let tgrad = Array.make (nvars + 1) 0.0 in
      let thvp = Array.make (nvars + 1) 0.0 in
      List.for_all
        (fun mu ->
          let v_ref, g_ref = Expr.eval_grad ~mu e x in
          let v = Tape.eval ~mu tape ws x in
          let vg = Tape.eval_grad ~mu tape ws ~x ~grad in
          let g = Array.copy grad in
          let vh = Tape.eval_hvp ~mu tape ws ~x ~dx ~grad ~hvp in
          let tv = Tape.eval ~mu twin tws x' in
          let tvh =
            Tape.eval_hvp ~mu twin tws ~x:x' ~dx:dx' ~grad:tgrad ~hvp:thvp
          in
          rel_close v_ref v && same v vg && same v vh
          && Array.for_all2 (fun a b -> rel_close a b) g_ref g
          && Array.for_all2 (fun a b -> rel_close a b) g_ref grad
          && same v tv && same vh tvh && same_prefix grad tgrad
          && same_prefix hvp thvp)
        mus)

(* ------------------------------------------------------------------ *)
(* The smoothed max's exact shortcuts                                  *)
(* ------------------------------------------------------------------ *)

(* max (2·e^x0, c·e^x1) at x = 0, with c = 2 − gap·mu: from 746·mu
   below the top down, the low branch's exp underflows to +0, so the
   smoothed max is the top bit for bit and the low branch's gradient
   weight is 0. *)
let test_far_branch_is_exact () =
  let mu = 1.0 /. 1024.0 in
  List.iter
    (fun gap ->
      let top = Expr.term ~coeff:2.0 ~expts:[ (0, 1.0) ] in
      let low = Expr.term ~coeff:(2.0 -. (gap *. mu)) ~expts:[ (1, 1.0) ] in
      let e = Expr.max_ [ top; low ] in
      let tape = Tape.compile e in
      let ws = Tape.create_workspace tape in
      let x = [| 0.0; 0.0 |] and grad = [| 0.0; 0.0 |] in
      let what = Printf.sprintf "%g mu below" gap in
      Alcotest.(check int64) (what ^ ": eval is the top")
        (Int64.bits_of_float 2.0)
        (Int64.bits_of_float (Tape.eval ~mu tape ws x));
      Alcotest.(check int64) (what ^ ": Expr.eval is the top")
        (Int64.bits_of_float 2.0)
        (Int64.bits_of_float (Expr.eval ~mu e x));
      ignore (Tape.eval_grad ~mu tape ws ~x ~grad);
      Alcotest.(check int64) (what ^ ": top branch gradient")
        (Int64.bits_of_float 2.0) (Int64.bits_of_float grad.(0));
      Alcotest.(check int64) (what ^ ": far branch weight 0")
        (Int64.bits_of_float 0.0) (Int64.bits_of_float grad.(1)))
    [ 746.0; 800.0; 1500.0 ]

(* Two equal branches: s = 1 + 1, so the max is m + mu·ln 2. *)
let test_equal_branches () =
  let mu = 0.01 in
  let e =
    Expr.max_
      [ Expr.term ~coeff:1.0 ~expts:[ (0, 1.0) ];
        Expr.term ~coeff:1.0 ~expts:[ (1, 1.0) ] ]
  in
  let tape = Tape.compile e in
  let ws = Tape.create_workspace tape in
  let x = [| 0.5; 0.5 |] in
  let m = exp 0.5 in
  Alcotest.(check int64) "m + mu ln 2"
    (Int64.bits_of_float (m +. (mu *. log 2.0)))
    (Int64.bits_of_float (Tape.eval ~mu tape ws x))

(* A NaN branch poisons the smoothed max, as in the reference. *)
let test_nan_branch () =
  let e =
    Expr.max_
      [ Expr.term ~coeff:1.0 ~expts:[ (0, 1.0) ];
        Expr.term ~coeff:1.0 ~expts:[ (1, 1.0) ] ]
  in
  let tape = Tape.compile e in
  let ws = Tape.create_workspace tape in
  let x = [| Float.nan; 0.0 |] in
  Alcotest.(check bool) "Expr.eval is NaN" true
    (Float.is_nan (Expr.eval ~mu:0.1 e x));
  Alcotest.(check bool) "Tape.eval is NaN" true
    (Float.is_nan (Tape.eval ~mu:0.1 tape ws x))

(* At mu = 0 too the max takes a NaN branch's value, as Expr's
   [Float.max] does, while the subgradient keeps the first maximising
   branch that is not NaN: here branch 1, e^x1 = 1. *)
let test_nan_branch_exact () =
  let e =
    Expr.max_
      [ Expr.term ~coeff:1.0 ~expts:[ (0, 1.0) ];
        Expr.term ~coeff:1.0 ~expts:[ (1, 1.0) ] ]
  in
  let tape = Tape.compile e in
  let ws = Tape.create_workspace tape in
  let x = [| Float.nan; 0.0 |] and grad = [| 0.0; 0.0 |] in
  Alcotest.(check bool) "Expr.eval is NaN" true (Float.is_nan (Expr.eval e x));
  Alcotest.(check bool) "Tape.eval is NaN" true
    (Float.is_nan (Tape.eval tape ws x));
  Alcotest.(check bool) "Tape.eval_grad is NaN" true
    (Float.is_nan (Tape.eval_grad tape (Tape.create_workspace tape) ~x ~grad));
  Alcotest.(check (array (float 0.0))) "subgradient of branch 1" [| 0.0; 1.0 |]
    grad;
  (* Finite points are unchanged: the larger branch. *)
  Alcotest.(check (float 0.0)) "finite" (exp 0.5)
    (Tape.eval tape ws [| 0.5; 0.25 |])

(* A term with no exponents is exp 0 times its coefficient: the
   builder makes it a constant rather than an empty segment. *)
let test_empty_term () =
  let b = Tape.Builder.create () in
  let empty = Tape.Builder.term b 2.5 [||] in
  let t = Tape.Builder.term b 1.0 [| (0, 1.0) |] in
  let tape = Tape.Builder.finish b ~root:(Tape.Builder.sum b 0.0 [ t; empty ]) in
  let ws = Tape.create_workspace tape in
  Alcotest.(check (float 0.0)) "2.5 + e^0.3" (2.5 +. exp 0.3)
    (Tape.eval tape ws [| 0.3 |]);
  Alcotest.(check int) "one monomial" 1 (Tape.num_monomials tape)

(* The calibrated paper graphs hold far fewer distinct monomials than
   term slots: complex-mm has 56 over 128 term slots, one-level
   Strassen (29 nodes) 174 over 414. *)
let test_paper_monomials () =
  let gt = Machine.Ground_truth.cm5_like () in
  let procs = [ 1; 2; 4; 8; 16; 32; 64 ] in
  let count g kernels =
    let params, _, _ = Machine.Measure.calibrate gt ~procs kernels in
    Tape.num_monomials
      (Core.Allocation.objective_tape params (G.normalise g) ~procs:64)
  in
  Alcotest.(check int) "complex-mm" 56
    (count (fst (Kernels.Complex_mm.graph ~n:64 ()))
       (Kernels.Complex_mm.kernels ~n:64));
  Alcotest.(check int) "strassen" 174
    (count
       (fst (Kernels.Strassen_mdg.graph ~n:128 ()))
       (Kernels.Strassen_mdg.kernels ~n:128))

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
  let x = [| 0.2; -0.4; 0.6 |] and x' = [| 0.1; 0.3; -0.2 |] in
  let dx = [| 0.5; -1.0; 0.25 |] in
  let grad = Array.make nvars 0.0 and hvp = Array.make nvars 0.0 in
  (* Minor words per call of [f], over 200 calls after a warm-up
     call. *)
  let words_per_call ?(calls_per_f = 1) f =
    let calls = 200 in
    f ();
    let words_before = Gc.minor_words () in
    for _ = 1 to calls do
      f ()
    done;
    (Gc.minor_words () -. words_before) /. float_of_int (calls_per_f * calls)
  in
  let check what per_call =
    if per_call >= 16.0 then
      Alcotest.failf "warm tape %s allocates %.1f words per call" what per_call
  in
  (* Three calls that each run a forward sweep, two of them at mu > 0.
     Each misses the held point: the third evaluates at a second
     point, so it sweeps as the first two do. *)
  check "sweep"
    (words_per_call ~calls_per_f:3 (fun () ->
         ignore (Tape.eval_grad tape ws ~x ~grad);
         ignore (Tape.eval_grad ~mu:0.01 tape ws ~x ~grad);
         ignore (Tape.eval ~mu:0.01 tape ws x')));
  (* Each call that runs no forward sweep, under its own bound. *)
  ignore (Tape.eval_grad ~mu:0.01 tape ws ~x ~grad);
  check "held-point eval"
    (words_per_call (fun () -> ignore (Tape.eval ~mu:0.01 tape ws x)));
  check "held-point eval_grad"
    (words_per_call (fun () ->
         ignore (Tape.eval_grad ~mu:0.01 tape ws ~x ~grad)));
  check "hvp" (words_per_call (fun () -> Tape.hvp tape ws ~dx ~hvp))

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

(* ------------------------------------------------------------------ *)
(* The held point                                                      *)
(* ------------------------------------------------------------------ *)

(* One workspace answers a random sequence of calls, at repeated and
   fresh points and temperatures, and must return for each the bits a
   fresh workspace returns.  Points: p0; p0 with the tape's highest
   variable moved one ulp; p0 with that variable NaN; p1; p2.
   Temperatures: 0.0, -0.0 and two smoothed ones, relative to the
   objective's scale. *)
type held_call =
  | Eval of int * int  (* point, mu *)
  | Grad of int * int
  | Hvp of int * int * int  (* point, mu, direction *)
  | Grad_hvp of int * int * int  (* point, mu, direction *)

let held_call_print = function
  | Eval (p, m) -> Printf.sprintf "eval p%d mu%d" p m
  | Grad (p, m) -> Printf.sprintf "eval_grad p%d mu%d" p m
  | Hvp (p, m, d) -> Printf.sprintf "eval_hvp p%d mu%d d%d" p m d
  | Grad_hvp (p, m, d) -> Printf.sprintf "eval_grad+hvp p%d mu%d d%d" p m d

let held_call_gen =
  let open QCheck.Gen in
  let* p = int_range 0 4 and* m = int_range 0 3 in
  let* d = int_range 0 1 in
  oneofl [ Eval (p, m); Grad (p, m); Hvp (p, m, d); Grad_hvp (p, m, d) ]

let prop_held_point_is_fresh =
  QCheck.Test.make
    ~name:"held point: every call returns a fresh workspace's bits"
    ~count:(Generators.count 100)
    QCheck.(
      triple (Generators.workgen_case ()) small_nat
        (make
           ~print:(fun cs -> String.concat "; " (List.map held_call_print cs))
           Gen.(list_size (int_range 1 24) held_call_gen)))
    (fun (wg, seed, calls) ->
      let g = G.normalise (Generators.mdg_of_workgen wg) in
      let tape =
        Core.Allocation.objective_tape (Generators.synth_params ()) g ~procs:16
      in
      let n = G.num_nodes g in
      let rng = Random.State.make [| seed |] in
      let draw () = Array.init n (fun _ -> Random.State.float rng (log 16.0)) in
      let p0 = draw () in
      let ulp = Array.copy p0 and nan = Array.copy p0 in
      let top = Int.max 0 (Tape.n_vars tape - 1) in
      ulp.(top) <- Float.succ ulp.(top);
      nan.(top) <- Float.nan;
      let points = [| p0; ulp; nan; draw (); draw () |] in
      let dirs = [| draw (); draw () |] in
      let scale = Tape.eval tape (Tape.create_workspace tape) p0 in
      let mus = [| 0.0; -0.0; 1e-3 *. scale; 0.05 *. scale |] in
      let ws = Tape.create_workspace tape in
      let bits = Int64.bits_of_float in
      let same a b = Int64.equal (bits a) (bits b) in
      (* [f ws] runs one call and returns its value and output vector. *)
      let agree f =
        let v, out = f ws in
        let out = Array.copy out in
        let v', out' = f (Tape.create_workspace tape) in
        same v v' && Array.for_all2 same out out'
      in
      let grad = Array.make n 0.0 and hvp = Array.make n 0.0 in
      List.for_all
        (fun call ->
          match call with
          | Eval (p, m) ->
              agree (fun ws -> (Tape.eval ~mu:mus.(m) tape ws points.(p), [||]))
          | Grad (p, m) ->
              agree (fun ws ->
                  ( Tape.eval_grad ~mu:mus.(m) tape ws ~x:points.(p) ~grad,
                    grad ))
          | Hvp (p, m, d) ->
              agree (fun ws ->
                  let v =
                    Tape.eval_hvp ~mu:mus.(m) tape ws ~x:points.(p)
                      ~dx:dirs.(d) ~grad ~hvp
                  in
                  (v, Array.append grad hvp))
          | Grad_hvp (p, m, d) ->
              agree (fun ws ->
                  let v =
                    Tape.eval_grad ~mu:mus.(m) tape ws ~x:points.(p) ~grad
                  in
                  Tape.hvp tape ws ~dx:dirs.(d) ~hvp;
                  (v, Array.append grad hvp)))
        calls)

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
    QCheck_alcotest.to_alcotest prop_monomial_sharing_invisible;
    Alcotest.test_case "max: a far branch adds exactly +0" `Quick
      test_far_branch_is_exact;
    Alcotest.test_case "max: two equal branches add mu*ln(2)" `Quick
      test_equal_branches;
    Alcotest.test_case "max: a NaN branch gives NaN" `Quick test_nan_branch;
    Alcotest.test_case "a term with no exponents is its coefficient" `Quick
      test_empty_term;
    Alcotest.test_case "paper graphs: distinct monomials" `Quick
      test_paper_monomials;
    Alcotest.test_case "max at mu = 0: a NaN branch gives NaN" `Quick
      test_nan_branch_exact;
    QCheck_alcotest.to_alcotest prop_held_point_is_fresh;
  ]
