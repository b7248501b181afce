(* Tests for the cost models of paper Section 4: the Amdahl processing
   model (eq. 1, Lemma 1), the 1D/2D transfer models (eqs. 2-3,
   Lemma 2), node/edge weights, and the training-sets fitting. *)

module G = Mdg.Graph
module P = Costmodel.Params
module Proc = Costmodel.Processing
module T = Costmodel.Transfer
module W = Costmodel.Weights
module F = Costmodel.Fit

let check_close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let proc_ex : P.processing = { alpha = 0.2; tau = 10.0 }

(* ------------------------------------------------------------------ *)
(* Params                                                              *)
(* ------------------------------------------------------------------ *)

let test_params_table () =
  let t = P.cm5 () in
  let add = P.processing t (G.Matrix_add 64) in
  check_close "table 1 add alpha" 0.067 add.alpha;
  check_close "table 1 add tau" 3.73e-3 add.tau;
  let mul = P.processing t (G.Matrix_multiply 64) in
  check_close "table 1 mul alpha" 0.121 mul.alpha;
  check_close "table 1 mul tau" 298.47e-3 mul.tau;
  Alcotest.(check int) "known kernels" 2 (List.length (P.known_kernels t))

let test_params_synthetic_dummy () =
  let t = P.make ~transfer:P.cm5_transfer in
  let s = P.processing t (G.Synthetic { alpha = 0.3; tau = 7.0 }) in
  check_close "synthetic alpha" 0.3 s.alpha;
  let d = P.processing t G.Dummy in
  check_close "dummy tau" 0.0 d.tau;
  Alcotest.check_raises "missing kernel" Not_found (fun () ->
      ignore (P.processing t (G.Matrix_add 99)))

let test_params_validation () =
  let t = P.make ~transfer:P.cm5_transfer in
  Alcotest.check_raises "bad alpha"
    (Invalid_argument "Params.set_processing: alpha outside [0,1]") (fun () ->
      P.set_processing t (G.Matrix_add 8) { alpha = 2.0; tau = 1.0 });
  Alcotest.check_raises "synthetic rejected"
    (Invalid_argument "Params.set_processing: synthetic/dummy kernels are implicit")
    (fun () ->
      P.set_processing t (G.Synthetic { alpha = 0.1; tau = 1.0 })
        { alpha = 0.1; tau = 1.0 })

(* ------------------------------------------------------------------ *)
(* Processing (eq. 1)                                                  *)
(* ------------------------------------------------------------------ *)

let test_processing_amdahl () =
  check_close "serial" 10.0 (Proc.cost proc_ex 1.0);
  check_close "p=2" ((0.2 +. 0.4) *. 10.0) (Proc.cost proc_ex 2.0);
  check_close "p=4" ((0.2 +. 0.2) *. 10.0) (Proc.cost_int proc_ex 4);
  check_close "limit" 2.0 (Proc.limit proc_ex);
  check_close "speedup at 4" (10.0 /. 4.0) (Proc.best_speedup proc_ex ~procs:4);
  Alcotest.check_raises "p<1" (Invalid_argument "Processing.cost: p < 1")
    (fun () -> ignore (Proc.cost proc_ex 0.5));
  Alcotest.check_raises "p NaN" (Invalid_argument "Processing.cost: p < 1")
    (fun () -> ignore (Proc.cost proc_ex Float.nan))

let test_processing_monotone_decreasing () =
  let prev = ref infinity in
  List.iter
    (fun p ->
      let c = Proc.cost_int proc_ex p in
      Alcotest.(check bool) "decreasing" true (c <= !prev);
      prev := c)
    [ 1; 2; 4; 8; 16; 32; 64 ]

(* Lemma 1: the posynomial form evaluates to the same values. *)
let test_processing_posynomial_consistent () =
  let posy = Proc.posynomial proc_ex ~var:0 in
  List.iter
    (fun p ->
      check_close
        (Printf.sprintf "p=%g" p)
        (Proc.cost proc_ex p)
        (Convex.Posynomial.eval posy [| p |]))
    [ 1.0; 2.0; 3.7; 16.0 ];
  (* Condition 2: t^C * p is posynomial and equals cost*p. *)
  let posy_p = Proc.posynomial_times_p proc_ex ~var:0 in
  check_close "t*p" (Proc.cost proc_ex 8.0 *. 8.0)
    (Convex.Posynomial.eval posy_p [| 8.0 |])

let test_processing_expr_consistent () =
  let e = Proc.expr proc_ex ~var:0 in
  check_close "expr vs cost" (Proc.cost proc_ex 5.0) (Convex.Expr.eval_p e [| 5.0 |])

let test_processing_zero_cost_kernels () =
  (* Dummy kernels have empty posynomials and zero exprs. *)
  let dummy : P.processing = { alpha = 0.0; tau = 0.0 } in
  check_close "zero cost" 0.0 (Proc.cost dummy 4.0);
  check_close "zero expr" 0.0 (Convex.Expr.eval_p (Proc.expr dummy ~var:0) [| 4.0 |])

(* ------------------------------------------------------------------ *)
(* Transfer (eqs. 2-3)                                                 *)
(* ------------------------------------------------------------------ *)

let tr = P.cm5_transfer

let test_transfer_1d_equal_procs () =
  (* pi = pj = 4, L bytes: max/pi = 1 message per proc. *)
  let l = 32768.0 in
  let c = T.components tr ~kind:G.Oned ~bytes:l ~p_send:4.0 ~p_recv:4.0 in
  check_close "send" (tr.t_ss +. (l /. 4.0 *. tr.t_ps)) c.send;
  check_close "recv" (tr.t_sr +. (l /. 4.0 *. tr.t_pr)) c.receive;
  check_close "network (t_n=0)" 0.0 c.network

let test_transfer_1d_asymmetric () =
  (* pi = 2, pj = 8: each sender issues 4 messages. *)
  let l = 1024.0 in
  let c = T.components tr ~kind:G.Oned ~bytes:l ~p_send:2.0 ~p_recv:8.0 in
  check_close "send startups" ((8.0 /. 2.0 *. tr.t_ss) +. (l /. 2.0 *. tr.t_ps)) c.send;
  check_close "recv startups" ((8.0 /. 8.0 *. tr.t_sr) +. (l /. 8.0 *. tr.t_pr)) c.receive

let test_transfer_2d () =
  let l = 4096.0 in
  let c = T.components tr ~kind:G.Twod ~bytes:l ~p_send:2.0 ~p_recv:8.0 in
  check_close "send all-to-all" ((8.0 *. tr.t_ss) +. (l /. 2.0 *. tr.t_ps)) c.send;
  check_close "recv all-to-all" ((2.0 *. tr.t_sr) +. (l /. 8.0 *. tr.t_pr)) c.receive

let test_transfer_zero_bytes_free () =
  let c = T.components tr ~kind:G.Twod ~bytes:0.0 ~p_send:4.0 ~p_recv:4.0 in
  check_close "total" 0.0 (T.total c)

let test_transfer_2d_costlier_than_1d () =
  (* With more than one processor on each side, the 2D pattern pays
     more startups than 1D for the same array. *)
  List.iter
    (fun (pi, pj) ->
      let l = 65536.0 in
      let c1 = T.total (T.components tr ~kind:G.Oned ~bytes:l ~p_send:pi ~p_recv:pj) in
      let c2 = T.total (T.components tr ~kind:G.Twod ~bytes:l ~p_send:pi ~p_recv:pj) in
      Alcotest.(check bool) "2D >= 1D" true (c2 >= c1 -. 1e-12))
    [ (2.0, 2.0); (4.0, 8.0); (16.0, 4.0) ]

let test_transfer_exprs_match_components () =
  (* The convex-expression forms agree with the numeric components
     (t_n = 0 so the 1D network surrogate is inactive). *)
  List.iter
    (fun (kind, pi, pj) ->
      let l = 8192.0 in
      let c = T.components tr ~kind ~bytes:l ~p_send:pi ~p_recv:pj in
      let p = [| pi; pj |] in
      check_close "send expr" c.send
        (Convex.Expr.eval_p (T.send_expr tr ~kind ~bytes:l ~vi:0 ~vj:1) p);
      check_close "recv expr" c.receive
        (Convex.Expr.eval_p (T.receive_expr tr ~kind ~bytes:l ~vi:0 ~vj:1) p);
      check_close "net expr" c.network
        (Convex.Expr.eval_p (T.network_expr tr ~kind ~bytes:l ~vi:0 ~vj:1) p);
      (* Condition 2 forms. *)
      check_close "send*p expr" (c.send *. pi)
        (Convex.Expr.eval_p (T.send_times_p_expr tr ~kind ~bytes:l ~vi:0 ~vj:1) p);
      check_close "recv*p expr" (c.receive *. pj)
        (Convex.Expr.eval_p (T.receive_times_p_expr tr ~kind ~bytes:l ~vi:0 ~vj:1) p))
    [
      (G.Oned, 2.0, 8.0);
      (G.Oned, 8.0, 2.0);
      (G.Oned, 4.0, 4.0);
      (G.Twod, 2.0, 8.0);
      (G.Twod, 16.0, 2.0);
    ]

(* Lemma 2 for the 2D case via explicit posynomials. *)
let test_transfer_2d_posynomials () =
  let l = 2048.0 in
  let c = T.components tr ~kind:G.Twod ~bytes:l ~p_send:4.0 ~p_recv:2.0 in
  check_close "posy send" c.send
    (Convex.Posynomial.eval (T.send_posynomial_2d tr ~bytes:l ~vi:0 ~vj:1) [| 4.0; 2.0 |]);
  check_close "posy recv" c.receive
    (Convex.Posynomial.eval
       (T.receive_posynomial_2d tr ~bytes:l ~vi:0 ~vj:1)
       [| 4.0; 2.0 |])

let test_transfer_validation () =
  let components ~bytes ~p_send ~p_recv () =
    ignore (T.components tr ~kind:G.Oned ~bytes ~p_send ~p_recv)
  in
  Alcotest.check_raises "p<1"
    (Invalid_argument "Transfer: processor counts must be >= 1")
    (components ~bytes:1.0 ~p_send:0.5 ~p_recv:1.0);
  List.iter
    (fun (what, p_send, p_recv) ->
      Alcotest.check_raises what
        (Invalid_argument "Transfer: processor counts must be >= 1")
        (components ~bytes:1.0 ~p_send ~p_recv))
    [ ("p_send NaN", Float.nan, 1.0); ("p_recv NaN", 1.0, Float.nan) ];
  List.iter
    (fun (what, bytes) ->
      Alcotest.check_raises what
        (Invalid_argument "Transfer: byte count negative or not finite")
        (components ~bytes ~p_send:1.0 ~p_recv:1.0))
    [
      ("bytes < 0", -1.0);
      ("bytes NaN", Float.nan);
      ("bytes inf", Float.infinity);
      ("bytes -inf", Float.neg_infinity);
    ]

(* ------------------------------------------------------------------ *)
(* Weights                                                             *)
(* ------------------------------------------------------------------ *)

let weighted_graph () =
  let b = G.create_builder () in
  let n0 = G.add_node b ~label:"src" ~kernel:(Synthetic { alpha = 0.1; tau = 2.0 }) in
  let n1 = G.add_node b ~label:"dst" ~kernel:(Synthetic { alpha = 0.2; tau = 4.0 }) in
  G.add_edge b ~src:n0 ~dst:n1 ~bytes:32768.0 ~kind:Oned;
  G.build b

let test_node_weight_composition () =
  let params = P.make ~transfer:tr in
  let g = weighted_graph () in
  let alloc _ = 4.0 in
  let c = T.components tr ~kind:G.Oned ~bytes:32768.0 ~p_send:4.0 ~p_recv:4.0 in
  let t0 = Proc.cost { alpha = 0.1; tau = 2.0 } 4.0 in
  let t1 = Proc.cost { alpha = 0.2; tau = 4.0 } 4.0 in
  check_close "src weight = proc + send" (t0 +. c.send)
    (W.node_weight params g ~alloc 0);
  check_close "dst weight = recv + proc" (t1 +. c.receive)
    (W.node_weight params g ~alloc 1);
  check_close "edge weight" c.network (W.edge_weight params ~alloc (List.hd (G.edges g)));
  check_close "processing only" t0 (W.processing_only params g ~alloc 0)

let test_average_and_cp () =
  let params = P.make ~transfer:tr in
  let g = weighted_graph () in
  let alloc _ = 2.0 in
  let w0 = W.node_weight params g ~alloc 0 in
  let w1 = W.node_weight params g ~alloc 1 in
  check_close "average" ((w0 *. 2.0) +. (w1 *. 2.0)) (4.0 *. W.average_finish_time params g ~alloc ~procs:4);
  check_close "critical path" (w0 +. w1) (W.critical_path_time params g ~alloc);
  check_close "lower bound is max" (Float.max ((w0 +. w1) /. 2.0) (w0 +. w1))
    (W.lower_bound params g ~alloc ~procs:4);
  check_close "serial time" 6.0 (W.serial_time params g)

(* ------------------------------------------------------------------ *)
(* Fit (training sets)                                                 *)
(* ------------------------------------------------------------------ *)

let test_fit_processing_exact () =
  (* Samples generated by the model itself are recovered exactly. *)
  let truth : P.processing = { alpha = 0.15; tau = 2.5 } in
  let samples =
    List.map (fun p -> (p, Proc.cost_int truth p)) [ 1; 2; 4; 8; 16; 32 ]
  in
  let fitted, q = F.fit_processing samples in
  check_close ~eps:1e-9 "alpha" truth.alpha fitted.alpha;
  check_close ~eps:1e-9 "tau" truth.tau fitted.tau;
  check_close ~eps:1e-9 "r2" 1.0 q.r_squared

let test_fit_processing_needs_two_points () =
  Alcotest.check_raises "one point"
    (Invalid_argument "Fit.fit_processing: need at least two distinct processor counts")
    (fun () -> ignore (F.fit_processing [ (4, 1.0); (4, 1.1) ]))

let test_fit_transfer_exact () =
  (* Samples generated by the model recover Table 2 exactly. *)
  let mk kind p_send p_recv bytes =
    {
      F.kind;
      p_send;
      p_recv;
      bytes;
      measured =
        T.components tr ~kind ~bytes ~p_send:(float_of_int p_send)
          ~p_recv:(float_of_int p_recv);
    }
  in
  let samples =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun (pi, pj) ->
            List.map (fun l -> mk kind pi pj l) [ 1024.0; 65536.0; 524288.0 ])
          [ (1, 4); (4, 1); (2, 2); (8, 16); (16, 8) ])
      [ G.Oned; G.Twod ]
  in
  let f = F.fit_transfer samples in
  check_close ~eps:1e-12 "t_ss" tr.t_ss f.params.t_ss;
  check_close ~eps:1e-12 "t_ps" tr.t_ps f.params.t_ps;
  check_close ~eps:1e-12 "t_sr" tr.t_sr f.params.t_sr;
  check_close ~eps:1e-12 "t_pr" tr.t_pr f.params.t_pr;
  check_close ~eps:1e-12 "t_n" tr.t_n f.params.t_n;
  check_close ~eps:1e-9 "send r2" 1.0 f.send_quality.r_squared

(* Against the ideal machine (no perturbations), calibration recovers
   the exact model end to end. *)
let test_calibrate_ideal_machine_exact () =
  let gt = Machine.Ground_truth.ideal () in
  let params, qualities, tf =
    Machine.Measure.calibrate gt ~procs:[ 1; 2; 4; 8; 16 ] [ G.Matrix_add 64 ]
  in
  check_close ~eps:1e-9 "t_ss exact" tr.t_ss tf.params.t_ss;
  let add = P.processing params (G.Matrix_add 64) in
  check_close ~eps:1e-6 "add alpha" 0.067 add.alpha;
  List.iter
    (fun (_, (q : F.quality)) -> check_close ~eps:1e-9 "r2 = 1" 1.0 q.r_squared)
    qualities

(* Property: fitting always reproduces its own model class. *)
let prop_fit_processing_roundtrip =
  QCheck.Test.make ~name:"fit_processing recovers arbitrary Amdahl params"
    ~count:100
    QCheck.(pair (float_range 0.0 0.9) (float_range 0.001 100.0))
    (fun (alpha, tau) ->
      let truth : P.processing = { alpha; tau } in
      let samples =
        List.map (fun p -> (p, Proc.cost_int truth p)) [ 1; 2; 3; 5; 8; 13; 32 ]
      in
      let fitted, _ = F.fit_processing samples in
      Float.abs (fitted.alpha -. alpha) < 1e-6
      && Float.abs (fitted.tau -. tau) < 1e-6 *. tau)

let suite =
  [
    Alcotest.test_case "params: CM-5 Table 1/2 constants" `Quick test_params_table;
    Alcotest.test_case "params: synthetic/dummy/missing" `Quick
      test_params_synthetic_dummy;
    Alcotest.test_case "params: validation" `Quick test_params_validation;
    Alcotest.test_case "processing: Amdahl values" `Quick test_processing_amdahl;
    Alcotest.test_case "processing: monotone in p" `Quick
      test_processing_monotone_decreasing;
    Alcotest.test_case "processing: posynomial consistency (Lemma 1)" `Quick
      test_processing_posynomial_consistent;
    Alcotest.test_case "processing: expr consistency" `Quick
      test_processing_expr_consistent;
    Alcotest.test_case "processing: zero-cost kernels" `Quick
      test_processing_zero_cost_kernels;
    Alcotest.test_case "transfer: 1D equal procs" `Quick test_transfer_1d_equal_procs;
    Alcotest.test_case "transfer: 1D asymmetric" `Quick test_transfer_1d_asymmetric;
    Alcotest.test_case "transfer: 2D all-to-all" `Quick test_transfer_2d;
    Alcotest.test_case "transfer: zero bytes free" `Quick
      test_transfer_zero_bytes_free;
    Alcotest.test_case "transfer: 2D costlier than 1D" `Quick
      test_transfer_2d_costlier_than_1d;
    Alcotest.test_case "transfer: exprs match components (Lemma 2)" `Quick
      test_transfer_exprs_match_components;
    Alcotest.test_case "transfer: 2D posynomials" `Quick test_transfer_2d_posynomials;
    Alcotest.test_case "transfer: validation" `Quick test_transfer_validation;
    Alcotest.test_case "weights: node composition" `Quick
      test_node_weight_composition;
    Alcotest.test_case "weights: average and critical path" `Quick
      test_average_and_cp;
    Alcotest.test_case "fit: processing exact recovery" `Quick
      test_fit_processing_exact;
    Alcotest.test_case "fit: processing needs 2 points" `Quick
      test_fit_processing_needs_two_points;
    Alcotest.test_case "fit: transfer exact recovery" `Quick test_fit_transfer_exact;
    Alcotest.test_case "fit: ideal-machine calibration exact" `Quick
      test_calibrate_ideal_machine_exact;
    QCheck_alcotest.to_alcotest prop_fit_processing_roundtrip;
  ]
