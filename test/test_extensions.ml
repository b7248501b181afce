(* Tests for the extension modules: MDG serialisation, static cost
   estimation and heuristic allocation baselines. *)

module G = Mdg.Graph
module P = Costmodel.Params

let check_close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Mdg.Serialize                                                       *)
(* ------------------------------------------------------------------ *)

let graphs_equal g1 g2 =
  G.num_nodes g1 = G.num_nodes g2
  && Array.for_all2
       (fun (a : G.node) (b : G.node) ->
         a.id = b.id && a.label = b.label && a.kernel = b.kernel)
       (G.nodes g1) (G.nodes g2)
  && List.equal
       (fun (a : G.edge) (b : G.edge) ->
         a.src = b.src && a.dst = b.dst && a.bytes = b.bytes && a.kind = b.kind)
       (G.edges g1) (G.edges g2)

let test_serialize_roundtrip_paper_graphs () =
  List.iter
    (fun g ->
      let text = Mdg.Serialize.to_string g in
      let g' = Mdg.Serialize.of_string text in
      Alcotest.(check bool) "roundtrip" true (graphs_equal g g'))
    [
      fst (Kernels.Complex_mm.graph ~n:64 ());
      fst (Kernels.Strassen_mdg.graph ~n:128 ());
      Kernels.Example_mdg.graph ();
    ]

let test_serialize_labels_with_specials () =
  let b = G.create_builder () in
  ignore
    (G.add_node b ~label:"weird \"label\" with \\ and\nnewline"
       ~kernel:(Synthetic { alpha = 0.1; tau = 1.0 }));
  ignore (G.add_node b ~label:"" ~kernel:G.Dummy);
  G.add_edge b ~src:0 ~dst:1 ~bytes:12.5 ~kind:Twod;
  let g = G.build b in
  let g' = Mdg.Serialize.of_string (Mdg.Serialize.to_string g) in
  Alcotest.(check bool) "specials roundtrip" true (graphs_equal g g')

let test_serialize_file_io () =
  let g = fst (Kernels.Complex_mm.graph ~n:16 ()) in
  let path = Filename.temp_file "mdg" ".txt" in
  Mdg.Serialize.save path g;
  let g' = Mdg.Serialize.load path in
  Sys.remove path;
  Alcotest.(check bool) "file roundtrip" true (graphs_equal g g')

let test_serialize_errors () =
  let fails text =
    try
      ignore (Mdg.Serialize.of_string text);
      false
    with Mdg.Serialize.Parse_error _ -> true
  in
  Alcotest.(check bool) "no header" true (fails "node 0 dummy \"x\"\n");
  Alcotest.(check bool) "bad kernel" true (fails "mdg\nnode 0 frobnicate \"x\"\n");
  Alcotest.(check bool) "sparse ids" true (fails "mdg\nnode 1 dummy \"x\"\n");
  Alcotest.(check bool) "bad kind" true
    (fails "mdg\nnode 0 dummy \"x\"\nnode 1 dummy \"y\"\nedge 0 1 1 3d\n");
  Alcotest.(check bool) "unterminated label" true (fails "mdg\nnode 0 dummy \"x\n")

let prop_serialize_roundtrip_random =
  QCheck.Test.make ~name:"serialize roundtrips random workloads" ~count:30
    QCheck.(int_range 0 5000)
    (fun seed ->
      let g =
        Kernels.Workloads.random_layered ~seed Kernels.Workloads.default_shape
      in
      graphs_equal g (Mdg.Serialize.of_string (Mdg.Serialize.to_string g)))

(* ------------------------------------------------------------------ *)
(* Static_estimate                                                     *)
(* ------------------------------------------------------------------ *)

let ds = Costmodel.Static_estimate.cm5_datasheet

let test_static_estimates_reasonable () =
  (* Within the right ballpark of the paper's Table 1 — static
     estimation is allowed to be rough but must not be wild. *)
  let add = Costmodel.Static_estimate.estimate_processing ds (G.Matrix_add 64) in
  let mul =
    Costmodel.Static_estimate.estimate_processing ds (G.Matrix_multiply 64)
  in
  Alcotest.(check bool) "add tau within 30%" true
    (Float.abs (add.tau -. 3.73e-3) /. 3.73e-3 < 0.3);
  Alcotest.(check bool) "mul tau within 30%" true
    (Float.abs (mul.tau -. 298.47e-3) /. 298.47e-3 < 0.3);
  Alcotest.(check bool) "mul alpha in [5%, 20%]" true
    (mul.alpha > 0.05 && mul.alpha < 0.2);
  Alcotest.(check bool) "alphas ordered: mul > add" true (mul.alpha > add.alpha)

let test_static_scaling_with_size () =
  (* tau scales with the operation count; alpha shrinks as loops get
     bigger (fixed overheads amortise). *)
  let small = Costmodel.Static_estimate.estimate_processing ds (G.Matrix_add 32) in
  let large = Costmodel.Static_estimate.estimate_processing ds (G.Matrix_add 128) in
  Alcotest.(check bool) "tau grows ~16x" true
    (large.tau /. small.tau > 10.0 && large.tau /. small.tau < 20.0);
  Alcotest.(check bool) "alpha shrinks" true (large.alpha < small.alpha)

let test_static_synthetic_dummy () =
  let s =
    Costmodel.Static_estimate.estimate_processing ds
      (G.Synthetic { alpha = 0.3; tau = 2.0 })
  in
  check_close "synthetic passthrough" 0.3 s.alpha;
  let d = Costmodel.Static_estimate.estimate_processing ds G.Dummy in
  check_close "dummy" 0.0 d.tau

let test_static_params_usable_end_to_end () =
  (* A statically-parameterised compile runs and lands within 2x of the
     fitted-parameter compile on the simulated machine. *)
  let g, _ = Kernels.Complex_mm.graph ~n:64 () in
  let gt = Machine.Ground_truth.cm5_like () in
  let static_params =
    Costmodel.Static_estimate.params ds (Kernels.Complex_mm.kernels ~n:64)
  in
  let fitted_params, _, _ =
    Machine.Measure.calibrate gt
      ~procs:[ 1; 2; 4; 8; 16; 32; 64 ]
      (Kernels.Complex_mm.kernels ~n:64)
  in
  let run params =
    (Core.Pipeline.simulate gt (Core.Pipeline.plan_exn params g ~procs:32)).finish_time
  in
  let t_static = run static_params and t_fitted = run fitted_params in
  Alcotest.(check bool)
    (Printf.sprintf "static %.4f vs fitted %.4f" t_static t_fitted)
    true
    (t_static < 2.0 *. t_fitted)

(* ------------------------------------------------------------------ *)
(* Heuristic                                                           *)
(* ------------------------------------------------------------------ *)

let heuristic_params () =
  let params = P.make ~transfer:P.cm5_transfer in
  params

let test_heuristic_data_parallel () =
  let g = Kernels.Workloads.fork_join ~branches:3 ~tau:1.0 ~alpha:0.1 ~bytes:1024.0 in
  let alloc =
    Core.Heuristic.allocate (heuristic_params ()) g ~procs:8 Core.Heuristic.Data_parallel
  in
  Array.iter (fun a -> check_close "all p" 8.0 a) alloc

let test_heuristic_level_uniform () =
  let g = Kernels.Workloads.fork_join ~branches:4 ~tau:1.0 ~alpha:0.1 ~bytes:1024.0 in
  let alloc =
    Core.Heuristic.allocate (heuristic_params ()) g ~procs:8 Core.Heuristic.Level_uniform
  in
  (* The 4 branch nodes share a level: 2 processors each. *)
  let branch_alloc = alloc.(2) in
  check_close "branch gets p/4" 2.0 branch_alloc

let test_heuristic_tau_proportional () =
  let b = G.create_builder () in
  let fork = G.add_node b ~label:"fork" ~kernel:(Synthetic { alpha = 0.1; tau = 1.0 }) in
  let heavy = G.add_node b ~label:"heavy" ~kernel:(Synthetic { alpha = 0.1; tau = 3.0 }) in
  let light = G.add_node b ~label:"light" ~kernel:(Synthetic { alpha = 0.1; tau = 1.0 }) in
  G.add_edge b ~src:fork ~dst:heavy ~bytes:0.0 ~kind:Oned;
  G.add_edge b ~src:fork ~dst:light ~bytes:0.0 ~kind:Oned;
  let g = G.normalise (G.build b) in
  let alloc =
    Core.Heuristic.allocate (heuristic_params ()) g ~procs:8
      Core.Heuristic.Level_tau_proportional
  in
  check_close "heavy gets 3/4 of 8" 6.0 alloc.(heavy);
  check_close "light gets 1/4 of 8" 2.0 alloc.(light)

let test_heuristic_alloc_in_range () =
  let g =
    Kernels.Workloads.random_layered ~seed:5 Kernels.Workloads.default_shape
  in
  List.iter
    (fun strategy ->
      let alloc = Core.Heuristic.allocate (heuristic_params ()) g ~procs:16 strategy in
      Array.iter
        (fun a ->
          Alcotest.(check bool) "in [1,16]" true (a >= 1.0 && a <= 16.0))
        alloc)
    Core.Heuristic.all

let test_heuristic_convex_never_worse_in_phi () =
  (* The convex optimum has, by definition, the smallest Phi. *)
  let g, _ = Kernels.Complex_mm.graph ~n:64 () in
  let gt = Machine.Ground_truth.cm5_like () in
  let params, _, _ =
    Machine.Measure.calibrate gt
      ~procs:[ 1; 2; 4; 8; 16; 32; 64 ]
      (Kernels.Complex_mm.kernels ~n:64)
  in
  match Core.Heuristic.evaluate_all params g ~procs:64 with
  | (_, phi_convex, _) :: rest ->
      List.iter
        (fun (name, phi, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "convex <= %s" name)
            true
            (phi_convex <= phi +. (0.01 *. phi)))
        rest
  | [] -> Alcotest.fail "no results"

let suite =
  [
    Alcotest.test_case "serialize: paper graphs roundtrip" `Quick
      test_serialize_roundtrip_paper_graphs;
    Alcotest.test_case "serialize: special characters" `Quick
      test_serialize_labels_with_specials;
    Alcotest.test_case "serialize: file IO" `Quick test_serialize_file_io;
    Alcotest.test_case "serialize: parse errors" `Quick test_serialize_errors;
    QCheck_alcotest.to_alcotest prop_serialize_roundtrip_random;
    Alcotest.test_case "static: Table-1 ballpark" `Quick
      test_static_estimates_reasonable;
    Alcotest.test_case "static: scaling with size" `Quick
      test_static_scaling_with_size;
    Alcotest.test_case "static: synthetic/dummy" `Quick test_static_synthetic_dummy;
    Alcotest.test_case "static: end-to-end usable" `Slow
      test_static_params_usable_end_to_end;
    Alcotest.test_case "heuristic: data parallel" `Quick
      test_heuristic_data_parallel;
    Alcotest.test_case "heuristic: level uniform" `Quick
      test_heuristic_level_uniform;
    Alcotest.test_case "heuristic: tau proportional" `Quick
      test_heuristic_tau_proportional;
    Alcotest.test_case "heuristic: allocations in range" `Quick
      test_heuristic_alloc_in_range;
    Alcotest.test_case "heuristic: convex minimises Phi" `Slow
      test_heuristic_convex_never_worse_in_phi;
  ]
