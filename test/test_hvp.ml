(* Property suite for Tape.eval_hvp: the forward-over-reverse
   Hessian-vector product is checked against central finite differences
   of the tape gradient on random posynomial-with-max DAGs, the induced
   bilinear form is symmetric, and the value/gradient computed alongside
   the product agree exactly with the plain evaluation sweeps.  The
   self-contained product is in turn the reference for the solver's
   HVP after a gradient sweep (Tape.hvp). *)

open Convex
module Vec = Numeric.Vec

let nvars = 3

(* Random expressions of the objective's shape — sums and maxima of
   posynomial terms, arbitrarily nested — over a fixed small variable
   set so points and directions are easy to generate. *)
let expr_gen =
  let open QCheck.Gen in
  let term =
    let* c = float_range 0.1 5.0 in
    let* es =
      list_size (int_range 1 3)
        (pair (int_range 0 (nvars - 1)) (float_range (-2.0) 2.0))
    in
    return (Expr.term ~coeff:c ~expts:es)
  in
  let rec build depth =
    if depth = 0 then term
    else
      frequency
        [
          (2, term);
          ( 3,
            let* xs = list_size (int_range 2 4) (build (depth - 1)) in
            return (Expr.sum xs) );
          ( 3,
            let* xs = list_size (int_range 2 4) (build (depth - 1)) in
            return (Expr.max_ xs) );
          ( 1,
            let* s = float_range 0.1 2.0 in
            let* e = build (depth - 1) in
            return (Expr.scale s e) );
        ]
  in
  build 3

let point_of n = QCheck.Gen.(array_size (return n) (float_range (-1.2) 1.2))
let dir_of n = QCheck.Gen.(array_size (return n) (float_range (-1.0) 1.0))
let point_gen = point_of nvars
let dir_gen = dir_of nvars

let case_gen = QCheck.(make Gen.(triple expr_gen point_gen dir_gen))

let hvp_of ~mu e ~x ~dx =
  let t = Tape.compile e in
  let ws = Tape.create_workspace t in
  let grad = Vec.create nvars 0.0 in
  let hvp = Vec.create nvars 0.0 in
  let v = Tape.eval_hvp ~mu t ws ~x ~dx ~grad ~hvp in
  (t, ws, v, grad, hvp)

(* H·v against a central finite difference of the gradient.  Only at
   mu > 0 — the smoothed objective is C², whereas at mu <= 0 the
   generalised Hessian of the active piece need not match differences
   taken across a kink. *)
let prop_hvp_matches_fd ~mu =
  QCheck.Test.make
    ~name:(Printf.sprintf "HVP = FD of gradient (mu = %g)" mu)
    ~count:150 case_gen
    (fun (e, x, dx) ->
      let t, ws, _, _, hvp = hvp_of ~mu e ~x ~dx in
      let h = 1e-5 in
      let shift s = Array.mapi (fun i xi -> xi +. (s *. h *. dx.(i))) x in
      let gp = Vec.create nvars 0.0 in
      let gm = Vec.create nvars 0.0 in
      ignore (Tape.eval_grad ~mu t ws ~x:(shift 1.0) ~grad:gp);
      ignore (Tape.eval_grad ~mu t ws ~x:(shift (-1.0)) ~grad:gm);
      let scale = ref 1.0 in
      Array.iter (fun v -> scale := Float.max !scale (Float.abs v)) hvp;
      let ok = ref true in
      for i = 0 to nvars - 1 do
        let fd = (gp.(i) -. gm.(i)) /. (2.0 *. h) in
        if Float.abs (fd -. hvp.(i)) > 1e-4 *. !scale then ok := false
      done;
      !ok)

(* The Hessian is symmetric: <Hv, w> = <Hw, v>. *)
let prop_hvp_symmetric ~mu =
  QCheck.Test.make
    ~name:(Printf.sprintf "<Hv,w> = <Hw,v> (mu = %g)" mu)
    ~count:150
    QCheck.(make Gen.(pair (triple expr_gen point_gen dir_gen) dir_gen))
    (fun ((e, x, v), w) ->
      let _, _, _, _, hv = hvp_of ~mu e ~x ~dx:v in
      let _, _, _, _, hw = hvp_of ~mu e ~x ~dx:w in
      let dot a b =
        let s = ref 0.0 in
        Array.iteri (fun i ai -> s := !s +. (ai *. b.(i))) a;
        !s
      in
      let hvw = dot hv w and hwv = dot hw v in
      Float.abs (hvw -. hwv) <= 1e-9 *. (1.0 +. Float.abs hvw))

(* The value and gradient computed alongside the product are the same
   sweeps eval/eval_grad run, at smoothed and exact temperatures. *)
let prop_hvp_value_grad_consistent ~mu =
  QCheck.Test.make
    ~name:(Printf.sprintf "eval_hvp value/gradient = eval/eval_grad (mu = %g)" mu)
    ~count:150 case_gen
    (fun (e, x, dx) ->
      let t, ws, v, grad, _ = hvp_of ~mu e ~x ~dx in
      let g' = Vec.create nvars 0.0 in
      let v' = Tape.eval_grad ~mu t ws ~x ~grad:g' in
      v = v' && Array.for_all2 (fun a b -> a = b) grad g')

(* Wide random DAGs over four variables: fat sums and maxima of 60-120
   posynomial terms each. *)
let wide_nvars = 4

let wide_expr_gen =
  let open QCheck.Gen in
  let term =
    let* c = float_range 0.1 5.0 in
    let* es =
      list_size (int_range 1 3)
        (pair (int_range 0 (wide_nvars - 1)) (float_range (-2.0) 2.0))
    in
    return (Expr.term ~coeff:c ~expts:es)
  in
  let fat inner =
    frequency
      [
        ( 3,
          let* xs = list_size (int_range 60 120) inner in
          return (Expr.sum xs) );
        ( 3,
          let* xs = list_size (int_range 60 120) inner in
          return (Expr.max_ xs) );
        ( 1,
          let* s = float_range 0.1 2.0 in
          let* xs = list_size (int_range 60 120) inner in
          return (Expr.scale s (Expr.max_ xs)) );
      ]
  in
  let* layer1 = fat term in
  let* layer2 = fat term in
  let* mix = fat term in
  return (Expr.sum [ layer1; layer2; mix ])

let prop_hvp_after_grad_matches_eval_hvp =
  QCheck.Test.make ~name:"hvp after eval_grad = eval_hvp, bit for bit"
    ~count:100
    QCheck.(
      make
        Gen.(
          quad wide_expr_gen (point_of wide_nvars) (dir_of wide_nvars)
            (oneofl [ 0.0; 0.05; 1.0 ])))
    (fun (e, x, dx, mu) ->
      let t = Tape.compile e in
      let bits = Int64.bits_of_float in
      let dense_ws = Tape.create_workspace t in
      let gd = Vec.create wide_nvars 0.0 and hd = Vec.create wide_nvars 0.0 in
      ignore (Tape.eval_hvp ~mu t dense_ws ~x ~dx ~grad:gd ~hvp:hd);
      let ws = Tape.create_workspace t in
      let g = Vec.create wide_nvars 0.0 and h = Vec.create wide_nvars 0.0 in
      ignore (Tape.eval_grad ~mu t ws ~x ~grad:g);
      Tape.hvp t ws ~dx ~hvp:h;
      if not (Array.for_all2 (fun a b -> Int64.equal (bits a) (bits b)) h hd)
      then
        QCheck.Test.fail_reportf "hvp diverged from eval_hvp (mu=%g, slots=%d)"
          mu (Tape.num_slots t)
      else true)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_hvp_matches_fd ~mu:1.0;
      prop_hvp_matches_fd ~mu:0.05;
      prop_hvp_symmetric ~mu:1.0;
      prop_hvp_symmetric ~mu:0.05;
      prop_hvp_value_grad_consistent ~mu:1.0;
      prop_hvp_value_grad_consistent ~mu:0.05;
      prop_hvp_value_grad_consistent ~mu:0.0;
      prop_hvp_after_grad_matches_eval_hvp;
    ]
