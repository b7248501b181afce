(* Golden regression pins for the end-to-end allocation solve: Phi and
   the solver's stage/iteration counts for the two paper programs
   (complex matrix multiply, recursive Strassen at levels 1-2) on the
   simulated CM-5 at 64 processors, against test/golden/solver.golden.

   The golden file carries its own tolerances per row; see its header
   for the format and how to regenerate after an intentional solver
   change. *)

module G = Mdg.Graph
module GT = Machine.Ground_truth

let calib_procs = [ 1; 2; 4; 8; 16; 32; 64 ]

let cases () =
  let gt = GT.cm5_like () in
  let complex =
    let g, _ = Kernels.Complex_mm.graph ~n:64 () in
    let p, _, _ =
      Machine.Measure.calibrate gt ~procs:calib_procs
        (Kernels.Complex_mm.kernels ~n:64)
    in
    ("complex-mm-64", g, p)
  in
  let strassen levels =
    let n = 128 in
    let g = Kernels.Strassen_mdg.graph_recursive ~levels ~n in
    let p, _, _ =
      Machine.Measure.calibrate gt ~procs:calib_procs
        (Kernels.Strassen_mdg.kernels_recursive ~levels ~n)
    in
    (Printf.sprintf "strassen-l%d" levels, g, p)
  in
  [ complex; strassen 1; strassen 2 ]

type golden = {
  phi : float;
  phi_rel_tol : float;
  stages : int;
  iterations : int;
  iter_tol : int;
}

let load_golden path =
  let ic = open_in path in
  let rows = ref [] in
  (try
     while true do
       let line = input_line ic in
       let line = String.trim line in
       if line <> "" && line.[0] <> '#' then
         Scanf.sscanf line "%s %f %f %d %d %d"
           (fun name phi phi_rel_tol stages iterations iter_tol ->
             rows := (name, { phi; phi_rel_tol; stages; iterations; iter_tol }) :: !rows)
     done
   with End_of_file -> close_in ic);
  !rows

(* A golden-file row for the measured result, reusing the old row's
   tolerances: what the file should say if the drift is intentional. *)
let fresh_row name (r : Core.Allocation.result) exp =
  Printf.sprintf "%-16s %.9f %g %d %d %d" name r.phi exp.phi_rel_tol
    r.solver.stages r.solver.iterations exp.iter_tol

let regen_command =
  "PARADIGM_GOLDEN_REGEN=1 dune exec test/test_main.exe -- test golden \
   --verbose"

(* dune runs tests from _build/default/test (golden/ is declared as a
   dependency of the test stanza); `dune exec test/test_main.exe` from
   the repo root — the regen command — needs the source-tree path. *)
let golden_path () =
  if Sys.file_exists "golden/solver.golden" then "golden/solver.golden"
  else "test/golden/solver.golden"

let test_golden () =
  let golden = load_golden (golden_path ()) in
  let problems = ref [] in
  let fresh = ref [] in
  let mismatch fmt =
    Printf.ksprintf (fun m -> problems := m :: !problems) fmt
  in
  (* Check every case and every field before failing, so one run shows
     the full extent of a drift (a solver change usually moves all
     three programs at once). *)
  List.iter
    (fun (name, g, p) ->
      let r = Core.Allocation.solve p (G.normalise g) ~procs:64 in
      match List.assoc_opt name golden with
      | None -> mismatch "%s: no golden row" name
      | Some exp ->
          fresh := fresh_row name r exp :: !fresh;
          let delta = Float.abs (r.phi -. exp.phi) in
          let allowed = exp.phi_rel_tol *. Float.abs exp.phi in
          if delta > allowed then
            mismatch
              "%s: Phi %.9f vs golden %.9f — |delta| %.3g over tolerance \
               %.3g (rel %g)"
              name r.phi exp.phi delta allowed exp.phi_rel_tol;
          if r.solver.stages <> exp.stages then
            mismatch "%s: %d solver stages vs golden %d (exact-match field)"
              name r.solver.stages exp.stages;
          let drift = abs (r.solver.iterations - exp.iterations) in
          if drift > exp.iter_tol then
            mismatch "%s: %d iterations vs golden %d — drift %d over tol %d"
              name r.solver.iterations exp.iterations drift exp.iter_tol)
    (cases ());
  if Sys.getenv_opt "PARADIGM_GOLDEN_REGEN" <> None then
    Printf.printf
      "\n# fresh rows for test/golden/solver.golden (current tolerances):\n%s\n"
      (String.concat "\n" (List.rev !fresh));
  match List.rev !problems with
  | [] -> ()
  | ps ->
      Alcotest.failf
        "%d golden mismatch(es):\n  %s\n\nIf the drift is intentional, print \
         replacement rows with\n  %s\nand paste them into \
         test/golden/solver.golden."
        (List.length ps)
        (String.concat "\n  " ps)
        regen_command

let suite =
  [
    Alcotest.test_case "Phi and stage counts match golden" `Slow test_golden;
  ]
