(* Shared random-workload generators for the property suites.

   Before this module existed, test_solver_prop.ml, test_bounds_prop.ml
   and test_cache_prop.ml each rolled their own random-MDG helper
   around Kernels.Workloads.random_layered, none of them shrinking (a
   failure printed an unreduced case).  Everything random in the
   property harness now comes from here:

   - [layered] cases wrap the layered generator with QCheck shrinking
     toward fewer layers / smaller width / smaller seeds;
   - [workgen] cases wrap Workgen's recursive divide-combine generator
     (and [program] cases its Frontend.Ast sibling) with shrinking via
     Workgen.shrink_spec;
   - [count] scales every suite's QCheck count by PARADIGM_QCHECK_MULT
     (the `make test-long` hook). *)

module G = Mdg.Graph

let synth_params () =
  Costmodel.Params.make ~transfer:Costmodel.Params.cm5_transfer

(* Same-machine re-calibration: scale the per-byte transfer costs,
   keep the processing table.  Distinct scale => distinct fingerprint,
   so the cached-plan path misses on a shape it holds under other
   constants. *)
let perturbed ~scale params =
  let tf = Costmodel.Params.transfer params in
  let p =
    Costmodel.Params.make
      ~transfer:{ tf with t_ps = tf.t_ps *. scale; t_pr = tf.t_pr *. scale }
  in
  List.iter
    (fun kernel ->
      Costmodel.Params.set_processing p kernel
        (Costmodel.Params.processing params kernel))
    (Costmodel.Params.known_kernels params);
  p

(* ------------------------------------------------------------------ *)
(* QCheck count scaling (`make test-long`)                             *)
(* ------------------------------------------------------------------ *)

let long_factor =
  match Sys.getenv_opt "PARADIGM_QCHECK_MULT" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> n
      | _ ->
          Printf.eprintf "ignoring bad PARADIGM_QCHECK_MULT=%S\n%!" s;
          1)
  | None -> 1

let count n = n * long_factor

(* ------------------------------------------------------------------ *)
(* Structural signature (collision oracle)                             *)
(* ------------------------------------------------------------------ *)

(* Exactly the data Mdg.Graph.structural_hash consumes, so a hash
   collision between graphs with different signatures is a true
   collision rather than a structurally-equal pair — and two equal
   signatures mean structurally identical graphs. *)
let signature g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (string_of_int (G.num_nodes g));
  Array.iter
    (fun (nd : G.node) ->
      Buffer.add_char buf '|';
      Buffer.add_string buf (Format.asprintf "%a" G.pp_kernel nd.kernel))
    (G.nodes g);
  List.iter
    (fun (e : G.edge) ->
      Buffer.add_string buf
        (Printf.sprintf "|%d>%d:%h:%s" e.src e.dst e.bytes
           (match e.kind with Oned -> "1" | Twod -> "2")))
    (G.edges g);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Layered cases                                                       *)
(* ------------------------------------------------------------------ *)

type layered = { seed : int; layers : int; width : int }

let mdg_of_seed ?(layers = 4) ?(width = 4) seed =
  G.normalise
    (Kernels.Workloads.random_layered ~seed
       { Kernels.Workloads.default_shape with layers; width })

let mdg_of_layered { seed; layers; width } = mdg_of_seed ~layers ~width seed

let layered_print { seed; layers; width } =
  Printf.sprintf "layered{seed=%d; layers=%d; width=%d}" seed layers width

let layered_shrink c yield =
  if c.layers > 1 then yield { c with layers = c.layers - 1 };
  if c.width > 1 then yield { c with width = c.width - 1 };
  QCheck.Shrink.int c.seed (fun seed -> yield { c with seed })

let layered ?(max_layers = 4) ?(max_width = 4) () =
  let gen =
    QCheck.Gen.(
      map3
        (fun seed layers width -> { seed; layers; width })
        (int_bound 100_000) (int_range 1 max_layers) (int_range 1 max_width))
  in
  QCheck.make ~print:layered_print ~shrink:layered_shrink gen

(* ------------------------------------------------------------------ *)
(* Workgen cases                                                       *)
(* ------------------------------------------------------------------ *)

type workgen = { wg_spec : Workgen.spec; wg_seed : int }

let workgen_print { wg_spec; wg_seed } =
  Printf.sprintf "%s : seed %d" (Workgen.spec_to_string wg_spec) wg_seed

let workgen_shrink c yield =
  List.iter
    (fun wg_spec -> yield { c with wg_spec })
    (Workgen.shrink_spec c.wg_spec);
  QCheck.Shrink.int c.wg_seed (fun wg_seed -> yield { c with wg_seed })

(* The float knobs come from small menus rather than continuous draws
   so a printed case (spec_to_string uses %g) parses back to the exact
   same spec. *)
let workgen_gen ~max_depth ~max_branching ~max_phase =
  QCheck.Gen.(
    let* depth = int_range 1 max_depth in
    let* branching = int_range 1 max_branching in
    let* divide = int_range 0 max_phase in
    let* combine = int_range 0 max_phase in
    let* cutoff = oneofl [ 0.0; 0.0; 0.25 ] in
    let* wiring = oneofl [ 0.0; 0.3; 0.6 ] in
    let* twod_fraction = oneofl [ 0.0; 0.25 ] in
    let* tau_decay = oneofl [ 0.6; 1.0 ] in
    let* bytes_decay = oneofl [ 0.5; 1.0 ] in
    let* wg_seed = int_bound 100_000 in
    return
      {
        wg_spec =
          {
            Workgen.default_spec with
            depth;
            branching;
            divide;
            combine;
            cutoff;
            wiring;
            twod_fraction;
            tau_decay;
            bytes_decay;
          };
        wg_seed;
      })

let workgen_case ?(max_depth = 3) ?(max_branching = 3) ?(max_phase = 2) () =
  QCheck.make ~print:workgen_print ~shrink:workgen_shrink
    (workgen_gen ~max_depth ~max_branching ~max_phase)

let mdg_of_workgen { wg_spec; wg_seed } = Workgen.generate wg_spec ~seed:wg_seed

(* Program cases stay small: statement counts grow with the recursion
   tree and the interpreter multiplies real matrices. *)
let program_case () =
  QCheck.make ~print:workgen_print ~shrink:workgen_shrink
    (workgen_gen ~max_depth:2 ~max_branching:2 ~max_phase:2)

let program_of_workgen ?(size = 8) { wg_spec; wg_seed } =
  Workgen.generate_program wg_spec ~seed:wg_seed ~size

(* ------------------------------------------------------------------ *)
(* Allocation solves against the Expr reference                        *)
(* ------------------------------------------------------------------ *)

(* The solve's Φ, A_p and C_p against the DAG-walking Expr reference,
   which shares no code with the tape the solver ran on: [phi] must be
   Allocation.evaluate at [alloc], and [average] and [critical_path]
   Expr.eval of their expressions at ln alloc, each within 1e-9
   relative.  Returns the disagreements, none when all three agree. *)
let expr_mismatches params g ~procs (r : Core.Allocation.result) =
  let x = Array.map log r.alloc in
  let eval expr = Convex.Expr.eval (expr params g ~procs) x in
  List.filter_map
    (fun (what, got, reference) ->
      if Float.abs (got -. reference) <= 1e-9 *. Float.abs reference then None
      else
        Some
          (Printf.sprintf "%s %.17g, Expr reference %.17g" what got reference))
    [
      ("phi", r.phi, Core.Allocation.evaluate params g ~procs ~alloc:r.alloc);
      ("average", r.average, eval Core.Allocation.average_expr);
      ( "critical_path",
        r.critical_path,
        eval Core.Allocation.critical_path_expr );
    ]

(* KKT stationarity, stated as achievable descent: the largest decrease
   of the mu_final-smoothed Expr objective that a halving-backtracked
   projected-gradient step from the solve's optimum finds, relative to
   1 + |value|.  (The raw projected-gradient norm is the wrong measure:
   at a kink of the max the smoothed gradient is O(1) even at the exact
   minimiser, but no feasible step along it descends.)  mu_final is the
   solver's own tightest temperature: the default 1e-6 scaled by the
   objective at the default (box-centre) start. *)
let mu_final_descent params g ~procs (r : Core.Allocation.result) =
  let obj = Core.Allocation.objective params g ~procs in
  let hi = log (float_of_int procs) in
  let centre = Array.make (G.num_nodes g) (0.5 *. hi) in
  let mu = 1e-6 *. Float.max (Float.abs (Convex.Expr.eval obj centre)) 1e-30 in
  let x = Array.map log r.alloc in
  let fx, gr = Convex.Expr.eval_grad ~mu obj x in
  let rec probe alpha tries =
    if tries = 0 then 0.0
    else begin
      let c =
        Array.mapi
          (fun i xi -> Float.min hi (Float.max 0.0 (xi -. (alpha *. gr.(i)))))
          x
      in
      let fc = Convex.Expr.eval ~mu obj c in
      if fc < fx then fx -. fc else probe (alpha /. 2.0) (tries - 1)
    end
  in
  probe 1.0 30 /. (1.0 +. Float.abs fx)
