(* Benchmark harness.

   `dune exec bench/main.exe` (no args) regenerates every table and
   figure of the paper and then runs the Bechamel micro-benchmarks of
   the core algorithms.  `dune exec bench/main.exe -- <experiment>`
   runs one experiment: fig1 tab1 fig3 tab2 fig5 fig6 fig7 fig8 fig9
   tab3 ablate micro.  `-- fingerprint` prints the plan digest of
   bench/fingerprint.ml. *)

open Bechamel
open Toolkit

(* The optimum of the Strassen objective in log space, and a point
   just below it. *)
let st_points alloc =
  let x = Array.map log alloc in
  [| x; Array.map (fun xi -> Float.max 0.0 (xi -. 1e-6)) x |]

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
  (* One depth-3 plan line, as planbench's serve workloads send it, and
     the answer a daemon worker gives it once the cache holds it. *)
  let wire_params =
    Costmodel.Params.make ~transfer:Costmodel.Params.cm5_transfer
  in
  let wire_line =
    Server.Json.to_string
      (Server.Protocol.encode_plan_request ~id:(Server.Json.int 1)
         ~params:wire_params
         (Workgen.generate
            (Workgen.spec_of_string_exn
               "depth=3,branch=3,cutoff=0.15,wiring=0.3")
            ~seed:5)
         ~procs:64)
  in
  let wire_config =
    Core.Pipeline.(with_cache (Core.Plan_cache.create ()) default_config)
  in
  let answer () =
    match Server.Protocol.decode_envelope wire_line with
    | Ok (id, Server.Protocol.Plan_line env) -> (
        match
          Server.Daemon.answer_plan wire_config
            ~default_params:(lazy wire_params) ~id env
        with
        | Ok reply -> Server.Json.to_string reply
        | Error msg -> failwith msg)
    | _ -> failwith "not a plan line"
  in
  (* The miss that stores the entry. *)
  ignore (answer () : string);
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
    (* The two tape rows alternate two points: at the point of its last
       forward sweep a workspace runs none, so a repeated point would
       time the held-point check instead of a sweep. *)
    Test.make ~name:"objective: tape eval_grad on strassen expr"
      (let obj = Core.Allocation.objective params st_graph ~procs:64 in
       let tape = Convex.Tape.compile obj in
       let ws = Convex.Tape.create_workspace tape in
       let xs = st_points st_alloc and i = ref 0 in
       let grad = Array.make (Array.length st_alloc) 0.0 in
       Staged.stage (fun () ->
           incr i;
           ignore
             (Convex.Tape.eval_grad ~mu:1e-4 tape ws ~x:xs.(!i land 1) ~grad)));
    (* The Armijo trial sweep: the solver's most frequent call. *)
    Test.make ~name:"objective: tape eval (mu > 0) on strassen expr"
      (let obj = Core.Allocation.objective params st_graph ~procs:64 in
       let tape = Convex.Tape.compile obj in
       let ws = Convex.Tape.create_workspace tape in
       let xs = st_points st_alloc and i = ref 0 in
       Staged.stage (fun () ->
           incr i;
           ignore (Convex.Tape.eval ~mu:1e-4 tape ws xs.(!i land 1))));
    Test.make ~name:"objective: tape compile (strassen)"
      (let obj = Core.Allocation.objective params st_graph ~procs:64 in
       Staged.stage (fun () -> ignore (Convex.Tape.compile obj)));
    Test.make ~name:"wire: decode_request, depth-3 plan line"
      (Staged.stage (fun () ->
           ignore (Server.Protocol.decode_request wire_line)));
    Test.make ~name:"wire: exact hit, depth-3 plan line"
      (Staged.stage (fun () -> ignore (answer ())));
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

let usage () =
  prerr_endline
    "usage: main.exe \
     [fig1|tab1|fig3|tab2|fig5|fig6|fig7|fig8|fig9|tab3|ablate|sweep|static|heuristics|topology|scale|scale-quick|expand|micro|fingerprint]\n\
     \       main.exe scale [<levels>|strassen:<levels>|random:<spec>:<seed>]...";
  exit 2

let () =
  match Sys.argv with
  | [| _ |] ->
      Experiments.all ();
      run_micro ()
  | [| _; "micro" |] -> run_micro ()
  | [| _; "fingerprint" |] -> Fingerprint.run ()
  | [| _; name |] -> (
      match Experiments.by_name name with Some run -> run () | None -> usage ())
  | argv when Array.length argv > 2 && argv.(1) = "scale" ->
      (* Ad-hoc scaling rows, e.g.
           main.exe -- scale 3 random:depth=4,branch=3:17
         (a bare int is a Strassen recursion depth; the random spec
         grammar is Workgen.spec_of_string's). *)
      Experiments.scale_custom
        (Array.to_list (Array.sub argv 2 (Array.length argv - 2)))
  | _ -> usage ()
