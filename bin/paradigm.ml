(* paradigm — command-line driver for the mixed task/data-parallelism
   compilation pipeline.

   Subcommands:
     graph      print an MDG (ASCII or Graphviz DOT)
     fit        calibrate cost-model parameters against the machine
     allocate   solve the convex allocation problem
     schedule   allocate + run the PSA, print the schedule
     simulate   full pipeline + MPMD execution on the simulated machine
     compile    parse a matrix program from a file and run the pipeline *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared argument handling                                            *)
(* ------------------------------------------------------------------ *)

type machine_kind = Cm5 | Ideal

let machine_conv =
  let parse = function
    | "cm5" -> Ok Cm5
    | "ideal" -> Ok Ideal
    | s -> Error (`Msg (Printf.sprintf "unknown machine %S (cm5|ideal)" s))
  in
  let print fmt = function
    | Cm5 -> Format.fprintf fmt "cm5"
    | Ideal -> Format.fprintf fmt "ideal"
  in
  Arg.conv (parse, print)

let machine_arg =
  let doc =
    "Simulated machine: $(b,cm5) (CM-5 constants with realistic \
     perturbations) or $(b,ideal) (cost models are exact)."
  in
  Arg.(value & opt machine_conv Cm5 & info [ "machine" ] ~docv:"MACHINE" ~doc)

let ground_truth = function
  | Cm5 -> Machine.Ground_truth.cm5_like ()
  | Ideal -> Machine.Ground_truth.ideal ()

let fail_msg fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("paradigm: " ^ msg);
      exit 1)
    fmt

let load_program ?optimise spec =
  match Frontend.Loader.load ?optimise spec with
  | Ok p -> p
  | Error (`Msg msg) -> fail_msg "%s" msg

let program_arg =
  let doc =
    "Program to compile: $(b,complex)[:N], $(b,strassen)[:N], \
     $(b,strassen2)[:N] (two recursion levels), $(b,example), or a path to a \
     matrix-program source file."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

let procs_arg =
  let doc = "Number of processors in the target machine." in
  Arg.(value & opt int 64 & info [ "p"; "procs" ] ~docv:"PROCS" ~doc)

let optimise_arg =
  let doc =
    "Run the front-end optimiser (CSE + dead-code elimination) before \
     lowering.  Only affects programs loaded from source files."
  in
  Arg.(value & flag & info [ "O"; "optimise" ] ~doc)

let calibrated_params gt (spec : Frontend.Loader.t) =
  if spec.kernels = [] then Costmodel.Params.cm5 ()
  else
    let params, _, _ =
      Machine.Measure.calibrate gt ~procs:[ 1; 2; 4; 8; 16; 32; 64 ] spec.kernels
    in
    params

let check_procs procs =
  if procs < 1 then fail_msg "processor count must be >= 1"

(* All pipeline failures are typed ({!Core.Pipeline.error}); the CLI
   boundary renders them and exits 1. *)
let run_plan ~config params graph ~procs =
  match Core.Pipeline.plan ~config (Core.Pipeline.request params graph ~procs) with
  | Ok plan -> plan
  | Error e -> fail_msg "%s" (Core.Pipeline.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Telemetry plumbing: --trace FILE / --metrics                        *)
(* ------------------------------------------------------------------ *)

let trace_arg =
  let doc =
    "Write a Chrome trace-event JSON telemetry file to $(docv): pipeline \
     phase spans, solver convergence counters, PSA rounding/placement \
     events and (for $(b,simulate)) the machine event timeline, all on one \
     timeline.  Open it in chrome://tracing or Perfetto."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "After the run, print a summary table of the telemetry stream: event \
     counts, total span times and final counter samples."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

type telemetry = { obs : Obs.t; finish : unit -> unit }

(* With neither flag the sink is [Obs.null] and the instrumented
   pipeline runs at full speed. *)
let telemetry ~trace ~metrics =
  if trace = None && not metrics then
    { obs = Obs.null; finish = (fun () -> ()) }
  else begin
    let recorder = Obs.Recorder.create () in
    let obs = Obs.Recorder.sink recorder in
    Obs.process_name obs ~pid:0 "paradigm compiler";
    let finish () =
      (match trace with
      | Some path -> (
          match Obs.Chrome_format.save path (Obs.Recorder.events recorder) with
          | () -> Printf.printf "\ntelemetry trace written to %s\n" path
          | exception Sys_error msg -> fail_msg "cannot write trace: %s" msg)
      | None -> ());
      if metrics then begin
        print_newline ();
        print_string
          (Obs.Summary.to_string
             (Obs.Summary.of_events (Obs.Recorder.events recorder)))
      end
    in
    { obs; finish }
  end

(* ------------------------------------------------------------------ *)
(* graph                                                               *)
(* ------------------------------------------------------------------ *)

let graph_cmd =
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of ASCII.")
  in
  let run spec dot optimise =
    let p = load_program ~optimise spec in
    Printf.printf "# %s: %s\n" p.name (Mdg.Render.summary p.graph);
    if dot then print_string (Mdg.Render.to_dot p.graph)
    else print_string (Mdg.Render.to_ascii p.graph)
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Print a program's macro dataflow graph.")
    Term.(const run $ program_arg $ dot $ optimise_arg)

(* ------------------------------------------------------------------ *)
(* fit                                                                 *)
(* ------------------------------------------------------------------ *)

let fit_cmd =
  let run machine =
    let gt = ground_truth machine in
    Printf.printf "machine: %s\n\n" (Machine.Ground_truth.describe gt);
    let kernels =
      [
        Mdg.Graph.Matrix_init 64;
        Mdg.Graph.Matrix_add 64;
        Mdg.Graph.Matrix_multiply 64;
        Mdg.Graph.Matrix_init 128;
      ]
    in
    let params, qualities, tf =
      Machine.Measure.calibrate gt ~procs:[ 1; 2; 4; 8; 16; 32; 64 ] kernels
    in
    Format.printf "processing parameters (training-sets fit):@.";
    List.iter
      (fun (kernel, (q : Costmodel.Fit.quality)) ->
        Format.printf "  %a : %a  (r^2 = %.5f)@." Mdg.Graph.pp_kernel kernel
          Costmodel.Params.pp_processing
          (Costmodel.Params.processing params kernel)
          q.r_squared)
      qualities;
    Format.printf "@.transfer parameters:@.  %a@." Costmodel.Params.pp_transfer
      tf.params
  in
  Cmd.v
    (Cmd.info "fit"
       ~doc:"Calibrate cost-model parameters against the simulated machine.")
    Term.(const run $ machine_arg)

(* ------------------------------------------------------------------ *)
(* allocate                                                            *)
(* ------------------------------------------------------------------ *)

let allocate_cmd =
  let run spec procs machine trace metrics optimise =
    check_procs procs;
    let p = load_program ~optimise spec in
    let gt = ground_truth machine in
    let params = calibrated_params gt p in
    let g = Mdg.Graph.normalise p.graph in
    let tel = telemetry ~trace ~metrics in
    let r = Core.Allocation.solve ~obs:tel.obs params g ~procs in
    Printf.printf "program        : %s\n" p.name;
    Printf.printf "processors     : %d\n" procs;
    Printf.printf "Phi            : %.6f s\n" r.phi;
    Printf.printf "  average bound: %.6f s\n" r.average;
    Printf.printf "  critical path: %.6f s\n" r.critical_path;
    Printf.printf "solver         : %d iterations, converged = %b\n\n"
      r.solver.iterations r.solver.converged;
    Array.iteri
      (fun i a ->
        Printf.printf "  node %2d %-26s p_i = %7.3f\n" i
          (Mdg.Graph.node g i).label a)
      r.alloc;
    tel.finish ()
  in
  Cmd.v
    (Cmd.info "allocate"
       ~doc:"Solve the convex-programming processor allocation (paper Sec. 2).")
    Term.(
      const run $ program_arg $ procs_arg $ machine_arg $ trace_arg
      $ metrics_arg $ optimise_arg)

(* ------------------------------------------------------------------ *)
(* schedule                                                            *)
(* ------------------------------------------------------------------ *)

let schedule_cmd =
  let pb =
    let doc = "Processor bound PB (power of two). Default: Corollary 1." in
    Arg.(value & opt (some int) None & info [ "pb" ] ~docv:"PB" ~doc)
  in
  let run spec procs machine pb trace metrics optimise =
    check_procs procs;
    let p = load_program ~optimise spec in
    let gt = ground_truth machine in
    let params = calibrated_params gt p in
    let tel = telemetry ~trace ~metrics in
    let psa_options =
      match pb with
      | None -> Core.Psa.default_options
      | Some pb -> { Core.Psa.default_options with pb = Core.Psa.Fixed pb }
    in
    let config =
      Core.Pipeline.(
        default_config |> with_psa_options psa_options |> with_obs tel.obs)
    in
    let plan = run_plan ~config params p.graph ~procs in
    Printf.printf "program : %s on %d processors\n" p.name procs;
    Printf.printf "Phi     : %.6f s\n" (Core.Pipeline.phi plan);
    Printf.printf "T_psa   : %.6f s  (PB = %d)\n\n"
      (Core.Pipeline.predicted_time plan)
      plan.psa.pb;
    print_string
      (Core.Gantt.allocation_table plan.graph ~real:plan.allocation.alloc
         ~rounded:plan.psa.rounded_alloc);
    print_newline ();
    print_string (Core.Gantt.of_schedule plan.graph (Core.Pipeline.schedule plan));
    (match Core.Schedule.validate params plan.graph plan.psa.schedule with
    | Ok () -> print_endline "schedule validates: OK"
    | Error msgs ->
        print_endline "schedule validation FAILED:";
        List.iter (Printf.printf "  %s\n") msgs;
        exit 1);
    tel.finish ()
  in
  Cmd.v
    (Cmd.info "schedule"
       ~doc:"Allocate and run the Prioritised Scheduling Algorithm (paper Sec. 3).")
    Term.(
      const run $ program_arg $ procs_arg $ machine_arg $ pb $ trace_arg
      $ metrics_arg $ optimise_arg)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let simulate_cmd =
  let gantt =
    Arg.(
      value & flag
      & info [ "gantt" ] ~doc:"Print the simulated activity Gantt chart.")
  in
  let trace_json =
    let doc =
      "Write a Chrome trace-event JSON of the machine execution only to \
       $(docv) (see $(b,--trace) for the full pipeline telemetry)."
    in
    Arg.(value & opt (some string) None & info [ "trace-json" ] ~docv:"FILE" ~doc)
  in
  let run spec procs machine gantt trace trace_json metrics optimise =
    check_procs procs;
    let p = load_program ~optimise spec in
    let gt = ground_truth machine in
    let params = calibrated_params gt p in
    let tel = telemetry ~trace ~metrics in
    let config = Core.Pipeline.(default_config |> with_obs tel.obs) in
    let plan = run_plan ~config params p.graph ~procs in
    let mpmd = Core.Pipeline.simulate gt plan in
    let spmd = Core.Pipeline.simulate_spmd ~obs:tel.obs gt p.graph ~procs in
    let serial = Core.Pipeline.serial_time gt p.graph in
    let c =
      Core.Pipeline.comparison_of ~procs ~serial
        ~predicted:(Core.Pipeline.predicted_time plan)
        ~phi:(Core.Pipeline.phi plan) ~mpmd_time:mpmd.finish_time
        ~spmd_time:spmd.finish_time
    in
    Printf.printf "program            : %s on %d processors\n" p.name procs;
    Printf.printf "serial time        : %.6f s\n" c.serial;
    Printf.printf "MPMD (this paper)  : %.6f s   speedup %6.2f  efficiency %5.1f%%\n"
      c.mpmd_time c.mpmd_speedup (100.0 *. c.mpmd_efficiency);
    Printf.printf "SPMD (baseline)    : %.6f s   speedup %6.2f  efficiency %5.1f%%\n"
      c.spmd_time c.spmd_speedup (100.0 *. c.spmd_efficiency);
    Printf.printf "model prediction   : %.6f s   (%.1f%% off actual)\n" c.predicted
      (100.0 *. (c.predicted -. c.mpmd_time) /. c.mpmd_time);
    Printf.printf "convex optimum Phi : %.6f s\n" c.phi;
    if gantt then begin
      print_newline ();
      print_string (Core.Gantt.of_sim mpmd)
    end;
    (match trace_json with
    | Some path ->
        Machine.Trace_export.save ~process_name:p.name path mpmd;
        Printf.printf "\nChrome trace written to %s\n" path
    | None -> ());
    tel.finish ()
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run the compiled MPMD program and the SPMD baseline on the machine.")
    Term.(
      const run $ program_arg $ procs_arg $ machine_arg $ gantt $ trace_arg
      $ trace_json $ metrics_arg $ optimise_arg)

(* ------------------------------------------------------------------ *)
(* compile                                                             *)
(* ------------------------------------------------------------------ *)

let compile_cmd =
  let run spec procs machine trace metrics optimise =
    check_procs procs;
    let p = load_program ~optimise spec in
    let gt = ground_truth machine in
    let params = calibrated_params gt p in
    let tel = telemetry ~trace ~metrics in
    let config = Core.Pipeline.(default_config |> with_obs tel.obs) in
    let plan = run_plan ~config params p.graph ~procs in
    let prog = Core.Codegen.mpmd gt plan.graph (Core.Pipeline.schedule plan) in
    Printf.printf "# %s compiled for %d processors\n" p.name procs;
    Printf.printf "# Phi = %.6f s, T_psa = %.6f s\n\n" (Core.Pipeline.phi plan)
      (Core.Pipeline.predicted_time plan);
    Format.printf "%a@." Machine.Program.pp prog;
    tel.finish ()
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Print the generated per-processor MPMD program (paper Sec. 1.2 step 5).")
    Term.(
      const run $ program_arg $ procs_arg $ machine_arg $ trace_arg
      $ metrics_arg $ optimise_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let port =
    let doc = "TCP port to listen on (0 picks an ephemeral port)." in
    Arg.(value & opt int 7464 & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let addr =
    let doc = "Address to bind." in
    Arg.(value & opt string "127.0.0.1" & info [ "addr" ] ~docv:"ADDR" ~doc)
  in
  let workers =
    let doc = "Worker-domain pool size." in
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let max_pending =
    let doc =
      "Bound on admitted connections waiting for a worker; beyond \
       workers+$(docv) in the system, new connections are shed with a typed \
       'overloaded' reply and a retry-after hint instead of queueing."
    in
    Arg.(value & opt int 64 & info [ "max-pending" ] ~docv:"N" ~doc)
  in
  let run port addr workers max_pending machine trace metrics =
    if workers < 1 then fail_msg "worker count must be >= 1";
    if max_pending < 0 then fail_msg "max-pending must be >= 0";
    let gt = ground_truth machine in
    let tel = telemetry ~trace ~metrics in
    let options =
      {
        Server.Daemon.default_options with
        addr;
        port;
        workers;
        max_pending;
        config = Core.Pipeline.(default_config |> with_obs tel.obs);
        default_params =
          lazy
            (let params, _, _ =
               Machine.Measure.calibrate gt
                 ~procs:[ 1; 2; 4; 8; 16; 32; 64 ]
                 [
                   Mdg.Graph.Matrix_init 64;
                   Mdg.Graph.Matrix_add 64;
                   Mdg.Graph.Matrix_multiply 64;
                   Mdg.Graph.Matrix_init 128;
                 ]
             in
             params);
      }
    in
    let srv =
      try Server.Daemon.start ~options ()
      with Unix.Unix_error (err, _, _) ->
        fail_msg "cannot listen on %s:%d: %s" addr port
          (Unix.error_message err)
    in
    Printf.printf "paradigm plan server listening on %s:%d (%d workers)\n%!"
      addr (Server.Daemon.port srv) workers;
    let stop_requested = Atomic.make false in
    let request_stop _ = Atomic.set stop_requested true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    while not (Atomic.get stop_requested) do
      Unix.sleepf 0.2
    done;
    prerr_endline "shutting down (draining in-flight requests)...";
    Server.Daemon.stop srv;
    let s = Server.Daemon.stats srv in
    let srv_stats = Server.Daemon.server_stats srv in
    Printf.printf
      "served %d requests on %d connections (%d shed); warm cache %d hits \
       / %d misses; coalesced %d requests onto %d solves\n"
      (Server.Daemon.requests_served srv)
      (Server.Daemon.connections_accepted srv)
      (Server.Daemon.connections_shed srv)
      s.warm_hits s.warm_misses s.coalesce_hits s.coalesce_leaders;
    if metrics then begin
      (* Per-op latency histogram — the serving-side counters the
         telemetry summary cannot see. *)
      print_string "request latency (ms buckets:";
      Array.iter (fun b -> Printf.printf " <=%g" b) srv_stats.bounds_ms;
      print_string " overflow)\n";
      List.iter
        (fun (l : Server.Protocol.op_latency) ->
          if Array.exists (fun c -> c > 0) l.buckets then begin
            Printf.printf "  %-6s" l.op;
            Array.iter (fun c -> Printf.printf " %6d" c) l.buckets;
            print_newline ()
          end)
        srv_stats.latency
    end;
    tel.finish ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the concurrent plan server (newline-delimited JSON over TCP; \
          see the README's Serving section for the protocol).")
    Term.(
      const run $ port $ addr $ workers $ max_pending $ machine_arg $ trace_arg
      $ metrics_arg)

(* ------------------------------------------------------------------ *)

let main =
  let doc =
    "Mixed functional+data parallelism via convex programming (ICPP'94 \
     reproduction)"
  in
  Cmd.group
    (Cmd.info "paradigm" ~version:"1.0.0" ~doc)
    [
      graph_cmd;
      fit_cmd;
      allocate_cmd;
      schedule_cmd;
      simulate_cmd;
      compile_cmd;
      serve_cmd;
    ]

let () =
  try exit (Cmd.eval main) with
  | Failure msg ->
      prerr_endline ("paradigm: " ^ msg);
      exit 1
  | Core.Pipeline.Error e ->
      prerr_endline ("paradigm: " ^ Core.Pipeline.error_to_string e);
      exit 1
