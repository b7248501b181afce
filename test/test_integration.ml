(* Cross-library integration tests: the whole pipeline — front end,
   calibration, allocation, PSA, code generation, simulation —
   exercised together, with invariants that span the layers. *)

module G = Mdg.Graph
module P = Costmodel.Params

let gt_ideal = Machine.Ground_truth.ideal ()

let gt_cm5 = Machine.Ground_truth.cm5_like ()

let synth_params () = P.make ~transfer:P.cm5_transfer

let calibrated kernels =
  let params, _, _ =
    Machine.Measure.calibrate gt_cm5 ~procs:[ 1; 2; 4; 8; 16; 32; 64 ] kernels
  in
  params

(* The hand-built complex-matmul MDG and the one derived by the front
   end from an equivalent source program yield the same optimisation
   problem (same Phi). *)
let test_frontend_equals_handbuilt_complex_mm () =
  let hand, _ = Kernels.Complex_mm.graph ~n:64 () in
  let source =
    Frontend.Ast.program ~size:64
      [
        Frontend.Ast.stmt "Ar" Frontend.Ast.Init;
        Frontend.Ast.stmt "Ai" Frontend.Ast.Init;
        Frontend.Ast.stmt "Br" Frontend.Ast.Init;
        Frontend.Ast.stmt "Bi" Frontend.Ast.Init;
        Frontend.Ast.stmt "E" (Frontend.Ast.Mul ("Ar", "Br"));
        Frontend.Ast.stmt "F" (Frontend.Ast.Mul ("Ai", "Bi"));
        Frontend.Ast.stmt "Gm" (Frontend.Ast.Mul ("Ar", "Bi"));
        Frontend.Ast.stmt "H" (Frontend.Ast.Mul ("Ai", "Br"));
        Frontend.Ast.stmt "Cr" (Frontend.Ast.Sub ("E", "F"));
        Frontend.Ast.stmt "Ci" (Frontend.Ast.Add ("Gm", "H"));
      ]
  in
  let derived, _ = Frontend.Lower.to_mdg source in
  Alcotest.(check int) "same node count" (G.num_nodes hand) (G.num_nodes derived);
  Alcotest.(check int) "same edge count"
    (List.length (G.edges hand))
    (List.length (G.edges derived));
  let params = calibrated (Kernels.Complex_mm.kernels ~n:64) in
  let phi g = (Core.Allocation.solve params (G.normalise g) ~procs:32).phi in
  let p_hand = phi hand and p_derived = phi derived in
  Alcotest.(check bool)
    (Printf.sprintf "Phi agree (%.5f vs %.5f)" p_hand p_derived)
    true
    (Float.abs (p_hand -. p_derived) < 0.01 *. p_hand)

(* On the ideal machine the whole chain is self-consistent: the
   simulated MPMD time never exceeds the model's prediction by more
   than rounding noise, for random graphs. *)
let prop_sim_bounded_by_prediction_ideal =
  QCheck.Test.make ~name:"ideal machine: sim time <= predicted (+5%)" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let shape =
        { Kernels.Workloads.default_shape with layers = 3; width = 3 }
      in
      let g = Kernels.Workloads.random_layered ~seed shape in
      let params = synth_params () in
      let plan = Core.Pipeline.plan_exn params g ~procs:16 in
      let sim = Core.Pipeline.simulate gt_ideal plan in
      sim.finish_time <= (Core.Pipeline.predicted_time plan *. 1.05) +. 1e-9
      && sim.finish_time > 0.0)

(* Message accounting: every generated Send is delivered exactly once,
   whatever the graph. *)
let prop_all_messages_delivered =
  QCheck.Test.make ~name:"every MPMD send is delivered" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let shape =
        { Kernels.Workloads.default_shape with layers = 3; width = 3 }
      in
      let g = Kernels.Workloads.random_layered ~seed shape in
      let params = synth_params () in
      let plan = Core.Pipeline.plan_exn params g ~procs:8 in
      let prog = Core.Codegen.mpmd gt_ideal plan.graph (Core.Pipeline.schedule plan) in
      let sim = Machine.Sim.run gt_ideal prog in
      sim.messages_delivered = List.length (Machine.Program.sends prog))

(* Paper-shape regression: the headline comparative results hold. *)
let test_paper_shape_regressions () =
  let params =
    calibrated
      (List.sort_uniq compare
         (Kernels.Complex_mm.kernels ~n:64 @ Kernels.Strassen_mdg.kernels ~n:128))
  in
  List.iter
    (fun (g, label) ->
      let c64 = Core.Pipeline.compare_mpmd_spmd_exn gt_cm5 params g ~procs:64 in
      let c16 = Core.Pipeline.compare_mpmd_spmd_exn gt_cm5 params g ~procs:16 in
      (* MPMD wins, and its advantage grows with machine size. *)
      Alcotest.(check bool) (label ^ ": MPMD beats SPMD at 64") true
        (c64.mpmd_speedup > c64.spmd_speedup);
      Alcotest.(check bool) (label ^ ": advantage grows with p") true
        (c64.mpmd_speedup /. c64.spmd_speedup
        > c16.mpmd_speedup /. c16.spmd_speedup);
      (* Predictions track actual times within 15% (Figure 9's story). *)
      Alcotest.(check bool) (label ^ ": prediction within 15%") true
        (Float.abs (c64.predicted -. c64.mpmd_time) /. c64.mpmd_time < 0.15);
      (* T_psa close to Phi (Table 3's story: within ~20%). *)
      Alcotest.(check bool) (label ^ ": T_psa within 20% of Phi") true
        ((c64.predicted -. c64.phi) /. c64.phi < 0.2))
    [
      (fst (Kernels.Complex_mm.graph ~n:64 ()), "complex-mm");
      (fst (Kernels.Strassen_mdg.graph ~n:128 ()), "strassen");
    ]

(* Theorem 3's guarantee holds end to end for the paper's workloads at
   every machine size. *)
let test_theorem3_on_paper_workloads () =
  let params =
    calibrated
      (List.sort_uniq compare
         (Kernels.Complex_mm.kernels ~n:64 @ Kernels.Strassen_mdg.kernels ~n:128))
  in
  List.iter
    (fun g ->
      List.iter
        (fun procs ->
          let plan = Core.Pipeline.plan_exn params g ~procs in
          Alcotest.(check bool)
            (Printf.sprintf "theorem 3 at p=%d" procs)
            true
            (Core.Bounds.check_theorem3
               ~t_psa:(Core.Pipeline.predicted_time plan)
               ~phi:(Core.Pipeline.phi plan) ~procs ~pb:plan.psa.pb))
        [ 16; 32; 64 ])
    [
      fst (Kernels.Complex_mm.graph ~n:64 ());
      fst (Kernels.Strassen_mdg.graph ~n:128 ());
    ]

(* Busy-area conservation between layers: the simulator's total busy
   time on compute equals the sum of ground-truth kernel times the
   codegen put in. *)
let test_busy_time_conservation () =
  let g, _ = Kernels.Complex_mm.graph ~n:64 () in
  let params = calibrated (Kernels.Complex_mm.kernels ~n:64) in
  let plan = Core.Pipeline.plan_exn params g ~procs:16 in
  let prog = Core.Codegen.mpmd gt_cm5 plan.graph (Core.Pipeline.schedule plan) in
  let sim = Machine.Sim.run gt_cm5 prog in
  let compute_busy =
    List.fold_left
      (fun acc (s : Machine.Sim.segment) ->
        match s.activity with
        | Machine.Sim.Busy_compute _ -> acc +. (s.finish -. s.start)
        | _ -> acc)
      0.0 sim.segments
  in
  let expected =
    List.fold_left
      (fun acc (e : Core.Schedule.entry) ->
        let nd = G.node plan.graph e.node in
        let k = Array.length e.procs in
        acc
        +. (float_of_int k
           *. Machine.Ground_truth.kernel_time gt_cm5 nd.kernel ~procs:k))
      0.0
      (Core.Schedule.entries (Core.Pipeline.schedule plan))
  in
  Alcotest.(check (float 1e-6)) "compute busy time" expected compute_busy

(* Increasing the machine never slows the optimum: Phi is monotone
   non-increasing in p for the paper workloads. *)
let test_phi_monotone_in_p () =
  let g, _ = Kernels.Complex_mm.graph ~n:64 () in
  let params = calibrated (Kernels.Complex_mm.kernels ~n:64) in
  let g = G.normalise g in
  let phis =
    List.map
      (fun procs -> (Core.Allocation.solve params g ~procs).phi)
      [ 4; 8; 16; 32; 64 ]
  in
  let rec check = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "monotone" true (b <= a +. (0.01 *. a));
        check rest
    | _ -> ()
  in
  check phis

let suite =
  [
    Alcotest.test_case "frontend == hand-built complex-mm" `Slow
      test_frontend_equals_handbuilt_complex_mm;
    QCheck_alcotest.to_alcotest prop_sim_bounded_by_prediction_ideal;
    QCheck_alcotest.to_alcotest prop_all_messages_delivered;
    Alcotest.test_case "paper-shape regressions" `Slow test_paper_shape_regressions;
    (* Alcotest reports each case by its index: keep "theorem 3" at 5. *)
    Alcotest.test_case "busy-time conservation" `Slow test_busy_time_conservation;
    Alcotest.test_case "theorem 3 on paper workloads" `Slow
      test_theorem3_on_paper_workloads;
    Alcotest.test_case "Phi monotone in machine size" `Slow test_phi_monotone_in_p;
  ]
