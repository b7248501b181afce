(* Benchmark harness.

   `dune exec bench/main.exe` (no args) regenerates every table and
   figure of the paper and then runs the Bechamel micro-benchmarks of
   the core algorithms.  `dune exec bench/main.exe -- <experiment>`
   runs one experiment: fig1 tab1 fig3 tab2 fig5 fig6 fig7 fig8 fig9
   tab3 ablate micro. *)

open Bechamel
open Toolkit

let micro_tests () =
  let gt = Machine.Ground_truth.cm5_like () in
  let params, _, _ =
    Machine.Measure.calibrate gt
      ~procs:[ 1; 2; 4; 8; 16; 32; 64 ]
      (List.sort_uniq compare
         (Kernels.Complex_mm.kernels ~n:64 @ Kernels.Strassen_mdg.kernels ~n:128))
  in
  let cm_graph = Mdg.Graph.normalise (fst (Kernels.Complex_mm.graph ~n:64 ())) in
  let st_graph = Mdg.Graph.normalise (fst (Kernels.Strassen_mdg.graph ~n:128 ())) in
  let cm_alloc = (Core.Allocation.solve params cm_graph ~procs:64).alloc in
  let st_alloc = (Core.Allocation.solve params st_graph ~procs:64).alloc in
  let cm_plan = Core.Pipeline.plan_exn params cm_graph ~procs:64 in
  let cm_prog = Core.Codegen.mpmd gt cm_graph (Core.Pipeline.schedule cm_plan) in
  let mat_a = Kernels.Dense.random_matrix ~seed:1 64 in
  let mat_b = Kernels.Dense.random_matrix ~seed:2 64 in
  [
    Test.make ~name:"allocation: complex-mm objective solve (12 nodes)"
      (Staged.stage (fun () ->
           ignore (Core.Allocation.solve params cm_graph ~procs:64)));
    Test.make ~name:"psa: schedule complex-mm"
      (Staged.stage (fun () ->
           ignore (Core.Psa.schedule params cm_graph ~procs:64 ~alloc:cm_alloc)));
    Test.make ~name:"psa: schedule strassen (29 nodes)"
      (Staged.stage (fun () ->
           ignore (Core.Psa.schedule params st_graph ~procs:64 ~alloc:st_alloc)));
    Test.make ~name:"codegen+sim: complex-mm MPMD on 64 procs"
      (Staged.stage (fun () -> ignore (Machine.Sim.run gt cm_prog)));
    Test.make ~name:"kernel: naive 64x64 matmul"
      (Staged.stage (fun () -> ignore (Numeric.Mat.matmul mat_a mat_b)));
    Test.make ~name:"kernel: one-level Strassen 64x64"
      (Staged.stage (fun () -> ignore (Kernels.Dense.strassen_one_level mat_a mat_b)));
    Test.make ~name:"objective: legacy Expr.eval_grad on strassen expr"
      (let obj = Core.Allocation.objective params st_graph ~procs:64 in
       let x = Array.map log st_alloc in
       Staged.stage (fun () -> ignore (Convex.Expr.eval_grad ~mu:1e-4 obj x)));
    Test.make ~name:"objective: tape eval_grad on strassen expr"
      (let obj = Core.Allocation.objective params st_graph ~procs:64 in
       let tape = Convex.Tape.compile obj in
       let ws = Convex.Tape.create_workspace tape in
       let x = Array.map log st_alloc in
       let grad = Array.make (Array.length x) 0.0 in
       Staged.stage (fun () ->
           ignore (Convex.Tape.eval_grad ~mu:1e-4 tape ws ~x ~grad)));
    Test.make ~name:"objective: tape compile (strassen)"
      (let obj = Core.Allocation.objective params st_graph ~procs:64 in
       Staged.stage (fun () -> ignore (Convex.Tape.compile obj)));
  ]

let run_micro () =
  print_newline ();
  print_endline (String.make 72 '-');
  print_endline "Bechamel micro-benchmarks (time per run, OLS estimate)";
  print_endline (String.make 72 '-');
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-54s %12.3f us\n" name (est /. 1e3)
          | _ -> Printf.printf "%-54s %12s\n" name "n/a")
        ols)
    (micro_tests ())

let () =
  match Sys.argv with
  | [| _ |] ->
      Experiments.all ();
      run_micro ()
  | [| _; "micro" |] -> run_micro ()
  | [| _; name |] -> (Experiments.by_name name) ()
  | argv when Array.length argv > 2 && argv.(1) = "scale" ->
      (* Ad-hoc scaling rows, e.g.
           main.exe -- scale 3 random:depth=4,branch=3:17
         (a bare int is a Strassen recursion depth; the random spec
         grammar is Workgen.spec_of_string's). *)
      Experiments.scale_custom
        (Array.to_list (Array.sub argv 2 (Array.length argv - 2)))
  | _ ->
      prerr_endline
        "usage: main.exe \
         [fig1|tab1|fig3|tab2|fig5|fig6|fig7|fig8|fig9|tab3|ablate|sweep|static|heuristics|topology|scale|scale-quick|expand|micro]\n\
         \       main.exe scale [<levels>|strassen:<levels>|random:<spec>:<seed>]...";
      exit 2
