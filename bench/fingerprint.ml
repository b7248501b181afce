(* Plan fingerprint: one digest over the bits of a fixed set of
   solves, so two builds can be checked for bit-identical plans.

     dune exec bench/main.exe -- fingerprint
     make fingerprint BASE=<rev>    (this tree against revision BASE)

   Every case's plans run through [Core.Pipeline.plan_exn] with the
   default configuration: default solver and PSA options, no cache.
   The digest covers, per plan, Φ, A_p and C_p, the allocation, the
   solver's x, value, iterations, stages, HVPs, CG iterations and
   [converged], and T_psa, floats by their bits.

   The plan path solves cold with the default options only, so the
   plans of the first [off_path_cases] cases are also solved three
   ways it never solves them, through [Core.Allocation.solve], and the
   digest covers each result as it covers a plan's allocation: a
   re-solve from the plan's own optimum, which runs the warm-start
   probe (as the golden row strassen-l1-p16-warm does), and cold solves
   under the two option sets of [bench ablate].

   libm's last bits may differ between machines, so compare digests
   taken on one machine only.  This file uses only the libraries'
   public interfaces, so bench/fingerprint.py can build it unchanged
   inside an older revision. *)

module G = Mdg.Graph

let calibrated kernels =
  let params, _, _ =
    Machine.Measure.calibrate
      (Machine.Ground_truth.cm5_like ())
      ~procs:[ 1; 2; 4; 8; 16; 32; 64 ] kernels
  in
  params

let synthetic () =
  Costmodel.Params.make ~transfer:Costmodel.Params.cm5_transfer

(* (name, params, graph, processor counts) of every case. *)
let cases () =
  let strassen_levels levels =
    ( Printf.sprintf "strassen:%d" levels,
      calibrated (Kernels.Strassen_mdg.kernels_recursive ~levels ~n:128),
      Kernels.Strassen_mdg.graph_recursive ~levels ~n:128,
      [ 64 ] )
  in
  let workgen spec seed procs =
    ( Printf.sprintf "%s:%d" spec seed,
      synthetic (),
      Workgen.generate (Workgen.spec_of_string_exn spec) ~seed,
      procs )
  in
  [
    ( "complex:64",
      calibrated (Kernels.Complex_mm.kernels ~n:64),
      fst (Kernels.Complex_mm.graph ~n:64 ()),
      [ 16; 32; 64 ] );
    ( "strassen:128",
      calibrated (Kernels.Strassen_mdg.kernels ~n:128),
      fst (Kernels.Strassen_mdg.graph ~n:128 ()),
      [ 16; 32; 64 ] );
    strassen_levels 2;
    strassen_levels 3;
    workgen "depth=5,branch=3,cutoff=0.2" 1994 [ 16; 64 ];
  ]
  @ List.init 200 (fun i ->
        workgen "depth=3,branch=3,cutoff=0.15,wiring=0.3" (i + 1) [ 16; 64 ])

let off_path_cases = 25

let ablate_options =
  Convex.Solver.
    [
      { default_options with mu_final = 1e-2 };
      { default_options with mu_init = 1e-30; mu_final = 1e-30 };
    ]

let add_allocation buf (a : Core.Allocation.result) =
  let float f = Buffer.add_int64_le buf (Int64.bits_of_float f) in
  let int i = Buffer.add_int64_le buf (Int64.of_int i) in
  let s = a.solver in
  float a.phi;
  float a.average;
  float a.critical_path;
  int (Array.length a.alloc);
  Array.iter float a.alloc;
  Array.iter float s.x;
  float s.value;
  int s.iterations;
  int s.stages;
  int s.hvp_evals;
  int s.cg_iterations;
  int (Bool.to_int s.converged)

let add_plan buf (plan : Core.Pipeline.plan) =
  add_allocation buf plan.allocation;
  Buffer.add_int64_le buf
    (Int64.bits_of_float (Core.Pipeline.predicted_time plan))

(* The solves of [plan]'s program that the plan path never runs;
   returns how many. *)
let add_off_path buf (plan : Core.Pipeline.plan) =
  let solve ?options ?x0 () =
    Core.Allocation.solve ?options ?x0 plan.params plan.graph
      ~procs:plan.procs
  in
  add_allocation buf (solve ~x0:(Array.map log plan.allocation.alloc) ());
  List.iter
    (fun options -> add_allocation buf (solve ~options ()))
    ablate_options;
  1 + List.length ablate_options

let run () =
  let buf = Buffer.create (1 lsl 16) in
  let plans = ref 0 and others = ref 0 in
  let t0 = Sys.time () in
  List.iteri
    (fun i (name, params, g, procs) ->
      List.iter
        (fun p ->
          Buffer.add_string buf (Printf.sprintf "%s@%d;" name p);
          let plan = Core.Pipeline.plan_exn params g ~procs:p in
          add_plan buf plan;
          incr plans;
          if i < off_path_cases then
            others := !others + add_off_path buf plan)
        procs)
    (cases ());
  Printf.printf "fingerprint %s (%d plans, %d other solves, %.1f s CPU)\n"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))
    !plans !others
    (Sys.time () -. t0)
