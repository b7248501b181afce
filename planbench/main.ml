(* planbench: the plan-service benchmark.

     main.exe --workload plan-cold|serve-hit|serve-drift --seed N
              --seconds S --trace 0|1 --paradigm PATH

   Runs the workload's fixed, seeded request list once in a closed
   loop, checks every output, and prints its metrics by name with their
   units; the last line of standard output is one JSON object with
   [correct], [attempted], [failed] and [metrics].  With [--trace 0]
   the metrics are the end-to-end ones, measured untraced.  With
   [--trace 1] they are the per-layer ones, from a separate traced
   in-process replay of the same lines.  [--paradigm] is the planner
   binary the serve workloads start as [paradigm serve].  Exits 1 when
   any check fails.  planbench/README.md describes the workloads and
   metrics. *)

open Planbench
module Json = Server.Json
module Protocol = Server.Protocol
module Pipeline = Core.Pipeline

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  paradigm : string;
}

let usage =
  "main.exe --workload plan-cold|serve-hit|serve-drift --seed N --seconds S --trace 0|1 \
   --paradigm PATH"

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref 10 in
  let trace = ref 0 and paradigm = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N seed of the request list");
      ("--seconds", Arg.Set_int seconds, "S sets the list length (requests per second of run)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or per-layer metrics");
      ("--paradigm", Arg.Set_string paradigm, "PATH planner binary for the serve workloads");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let fail msg =
    prerr_endline ("planbench: " ^ msg ^ "\nusage: " ^ usage);
    exit 2
  in
  if not (List.mem !workload [ "plan-cold"; "serve-hit"; "serve-drift" ]) then
    fail (Printf.sprintf "unknown workload %S" !workload);
  let seed = match !seed with Some s -> s | None -> fail "--seed is required" in
  if !seconds < 1 then fail "--seconds must be >= 1";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if !workload <> "plan-cold" && !paradigm = "" then fail "serve workloads need --paradigm";
  {
    workload = !workload;
    seed;
    seconds = !seconds;
    trace = !trace = 1;
    paradigm = !paradigm;
  }

let now = Served.now

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

type report = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** failed checks, newest first *)
  mutable metrics : (string * float * string) list;  (** newest first *)
  mutable context : (string * string) list;
}

let report () = { attempted = 0; failed = 0; problems = []; metrics = []; context = [] }

let problem r fmt = Printf.ksprintf (fun s -> r.problems <- s :: r.problems) fmt

let metric r name unit value = r.metrics <- (name, value, unit) :: r.metrics

let context r key fmt = Printf.ksprintf (fun v -> r.context <- (key, v) :: r.context) fmt

let print_report a r =
  let correct = r.problems = [] && r.failed = 0 in
  Printf.printf "planbench %s seed=%d seconds=%d trace=%d\n" a.workload a.seed a.seconds
    (if a.trace then 1 else 0);
  List.iter (fun (k, v) -> Printf.printf "context %s: %s\n" k v) (List.rev r.context);
  Printf.printf "checks: attempted=%d failed=%d\n" r.attempted r.failed;
  List.iter
    (fun p -> Printf.printf "FAILED: %s\n" p)
    (List.filteri (fun i _ -> i < 20) (List.rev r.problems));
  let metrics = List.rev r.metrics in
  List.iter (fun (name, v, unit) -> Printf.printf "  %-30s %16.6f %s\n" name v unit) metrics;
  let metric_json (name, v, unit) = (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]) in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.int r.attempted);
            ("failed", Json.int r.failed);
            ("metrics", Json.Obj (List.map metric_json metrics));
          ]));
  correct

(* Percentile by the benchmark's rule (nearest rank, failures as +inf,
   at least ten samples beyond); a refusal fails the run. *)
let percentile r ~pct samples =
  match Stats.percentile ~pct samples with
  | Ok v -> v
  | Error msg ->
      problem r "%s" msg;
      nan

(* Set up [reps] times and keep the last; set-up time is the median. *)
let repeat_setup ~reps ~teardown setup =
  let times = Array.make reps 0.0 in
  let rec go i =
    let t0 = now () in
    let s = setup () in
    times.(i) <- now () -. t0;
    if i = reps - 1 then s
    else begin
      teardown s;
      go (i + 1)
    end
  in
  let s = go 0 in
  (Stats.median times, s)

let steal_share cpu0 cpu1 =
  match (cpu0, cpu1) with
  | Some before, Some after -> Procfs.steal_share ~before ~after
  | _ -> nan

(* Run [round k] for every round; returns each round's wall time.  The
   machine's steal share over the timed phase and over each round is
   printed as context. *)
let in_rounds r ~rounds round =
  let steals = Array.make rounds nan in
  let cpu_start = Procfs.read_cpu () in
  let walls =
    Array.init rounds (fun k ->
        let cpu0 = Procfs.read_cpu () in
        let t0 = now () in
        round k;
        let wall = now () -. t0 in
        steals.(k) <- steal_share cpu0 (Procfs.read_cpu ());
        wall)
  in
  context r "steal_share" "%.4f" (steal_share cpu_start (Procfs.read_cpu ()));
  context r "round_steal" "[%s]"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") steals)));
  walls

let ground_truth = lazy (Machine.Ground_truth.cm5_like ())

(* Serial time over the simulated MPMD finish time of the plan. *)
let mpmd_speedup (p : Pipeline.plan) =
  let gt = Lazy.force ground_truth in
  Pipeline.serial_time gt p.graph /. (Pipeline.simulate gt p).finish_time

let geomean_of values = if values = [] then nan else Stats.geomean (Array.of_list values)

(* End-to-end timing of a run made of rounds, each given by the indices
   of its requests and its wall time: throughput, p50 and p90, each the
   median over the rounds, so a burst of machine noise in one round does
   not move them. *)
let timing r ~latency ~ok ~(rounds : (int array * float) array) =
  let pct p (idx, _) = percentile r ~pct:p (Array.map (fun i -> latency.(i)) idx) in
  let throughput (idx, wall) =
    float_of_int (Array.fold_left (fun acc i -> if ok i then acc + 1 else acc) 0 idx) /. wall
  in
  let per_round f = Array.map f rounds in
  let show values = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4g") values)) in
  let tp = per_round throughput and p50 = per_round (pct 50) and p90 = per_round (pct 90) in
  context r "rounds" "throughput [%s] p50 [%s] p90 [%s]" (show tp) (show p50) (show p90);
  (Stats.median tp, Stats.median p50, Stats.median p90)

let timing_metrics r (throughput, p50, p90) =
  metric r "throughput_rps" "1/s" throughput;
  metric r "latency_p50_ms" "ms" p50;
  metric r "latency_p90_ms" "ms" p90

(* ------------------------------------------------------------------ *)
(* Per-layer attribution                                               *)
(* ------------------------------------------------------------------ *)

(* Which layer a span's self time belongs to.  Every span inside the
   [Pipeline.plan] call that is not the tape compiler, the solver or
   the PSA is the pipeline's own work. *)
let layer_of_span = function
  | "request" -> "trace.unattributed_ms"
  | "decode_request" -> "protocol.decode_ms"
  | "plan_reply" -> "protocol.encode_ms"
  | "solver.compile" -> "tape.compile_ms"
  | "solver.solve" -> "solver.solve_ms"
  | "pipeline.schedule" -> "psa.schedule_ms"
  | _ -> "pipeline.self_ms"

let attributed_layers =
  [
    "protocol.decode_ms";
    "protocol.encode_ms";
    "pipeline.self_ms";
    "tape.compile_ms";
    "solver.solve_ms";
    "psa.schedule_ms";
    "trace.unattributed_ms";
  ]

(* A traced run writes its spans here, relative to the working
   directory. *)
let spans_dir = ".planbench"

let write_spans a spans selfs =
  (try Sys.mkdir spans_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat spans_dir (Printf.sprintf "spans-%s-seed%d.jsonl" a.workload a.seed) in
  Out_channel.with_open_text path (fun oc ->
      Array.iteri
        (fun i (s : Spans.span) ->
          Printf.fprintf oc
            "{\"id\":%d,\"req\":%d,\"name\":%S,\"parent\":%d,\"start\":%.9f,\"stop\":%.9f,\"self\":%.9f}\n"
            i s.req s.name s.parent s.start s.stop selfs.(i))
        spans);
  path

(* An untraced and a traced replay of the same requests, run in
   alternating blocks of about a twentieth of the list. *)
let replay_pair plain traced =
  match Replay.interleaved ~block:(Int.max 1 (Replay.length plain / 20)) [ plain; traced ] with
  | [ plain; traced ] -> (plain, traced)
  | _ -> assert false

(* Per-layer metrics of a traced replay ([traced]) against an untraced
   replay of the same requests ([plain]). *)
let layer_metrics a r ~(traced : Replay.outcome) ~(plain : Replay.outcome) =
  let tr = Option.get traced.trace in
  let n = Array.length traced.elapsed in
  let per_req x = x /. float_of_int n in
  let spans = Spans.to_array tr.spans in
  let selfs = Spans.self_times spans in
  let sums = Hashtbl.create 16 in
  let add k v = Hashtbl.replace sums k (v +. Option.value ~default:0.0 (Hashtbl.find_opt sums k)) in
  Array.iteri
    (fun i (s : Spans.span) ->
      add (layer_of_span s.name) selfs.(i);
      if s.name = "pipeline.allocate" then add "pipeline.allocate_self_ms" selfs.(i);
      if s.name = "plan" then add "pipeline.plan_ms" (s.stop -. s.start);
      if s.name = "request" then add "trace.request_ms" (s.stop -. s.start))
    spans;
  let ms k = per_req (1e3 *. Option.value ~default:0.0 (Hashtbl.find_opt sums k)) in
  let request_ms = ms "trace.request_ms" in
  let layer_sum = List.fold_left (fun acc k -> acc +. ms k) 0.0 attributed_layers in
  if Float.abs (layer_sum -. request_ms) > 1e-6 +. (1e-9 *. request_ms) then
    problem r "layer self times sum to %.9f ms, requests take %.9f ms" layer_sum request_ms;
  context r "layer_sum_ms" "%.6f of %.6f per request" layer_sum request_ms;
  context r "spans" "%s" (write_spans a spans selfs);
  let mean_int arr = Stats.mean (Array.map float_of_int arr) in
  List.iter (fun k -> metric r k "ms" (ms k)) [ "protocol.decode_ms"; "protocol.encode_ms" ];
  metric r "protocol.alloc_kw" "kword" (Stats.mean plain.protocol_words /. 1e3);
  metric r "pipeline.alloc_kw" "kword" (Stats.mean plain.pipeline_words /. 1e3);
  metric r "gc.minor_per_req" "count" (per_req (float_of_int plain.minor_collections));
  metric r "gc.major_collections" "count" (float_of_int plain.major_collections);
  metric r "pipeline.plan_ms" "ms" (ms "pipeline.plan_ms");
  metric r "pipeline.allocate_self_ms" "ms" (ms "pipeline.allocate_self_ms");
  metric r "pipeline.self_ms" "ms" (ms "pipeline.self_ms");
  metric r "tape.compile_ms" "ms" (ms "tape.compile_ms");
  metric r "tape.compiles" "count" (mean_int tr.compiles);
  metric r "solver.solve_ms" "ms" (ms "solver.solve_ms");
  metric r "solver.solves" "count" (mean_int tr.solves);
  metric r "solver.iterations" "count" (mean_int tr.iterations);
  metric r "solver.stages" "count" (mean_int tr.stages);
  metric r "solver.hvp_evals" "count" (mean_int tr.hvps);
  metric r "solver.cg_iterations" "count" (mean_int tr.cg_iterations);
  metric r "psa.schedule_ms" "ms" (ms "psa.schedule_ms");
  metric r "trace.request_ms" "ms" request_ms;
  metric r "trace.unattributed_ms" "ms" (ms "trace.unattributed_ms");
  let total (o : Replay.outcome) = Array.fold_left ( +. ) 0.0 o.elapsed in
  metric r "trace.overhead_share" "share" ((total traced /. total plain) -. 1.0)

(* Share of solved requests whose final solve met its tolerance. *)
let converged_share r (tr : Replay.trace) converged =
  let solved = ref 0 and conv = ref 0 in
  Array.iteri
    (fun i c ->
      if tr.solves.(i) > 0 then begin
        incr solved;
        if c then incr conv
      end)
    converged;
  metric r "solver.converged_share" "share"
    (if !solved = 0 then 0.0 else float_of_int !conv /. float_of_int !solved)

let cache_metrics r (s : Core.Plan_cache.stats option) ~requests =
  let share f = match s with Some s -> float_of_int (f s) /. float_of_int requests | None -> 0.0 in
  metric r "plan_cache.exact_hit_share" "share" (share (fun s -> s.warm_hits));
  metric r "plan_cache.shape_hit_share" "share" (share (fun s -> s.warm_shape_hits));
  metric r "plan_cache.procs_hit_share" "share" (share (fun s -> s.warm_procs_hits));
  metric r "plan_cache.miss_share" "share" (share (fun s -> s.warm_misses));
  metric r "plan_cache.tape_hit_share" "share" (share (fun s -> s.tape_hits));
  metric r "plan_cache.coalesce_hits" "count"
    (match s with Some s -> float_of_int s.coalesce_hits | None -> 0.0)

(* ------------------------------------------------------------------ *)
(* plan-cold                                                           *)
(* ------------------------------------------------------------------ *)

let plan_cold a r =
  let setup_s, rounds =
    repeat_setup ~reps:7 ~teardown:ignore (fun () ->
        Array.map Array.of_list (Lists.plan_cold ~seed:a.seed ~seconds:a.seconds))
  in
  let items = Array.concat (Array.to_list rounds) in
  let n = Array.length items in
  r.attempted <- n;
  context r "nproc" "%d" (Domain.recommended_domain_count ());
  context r "seed" "%d" a.seed;
  context r "requests" "%d plans in %d rounds (%d of the paper's programs)" n (Array.length rounds)
    (Array.fold_left (fun acc (it : Lists.item) -> if it.paper then acc + 1 else acc) 0 items);
  let latency = Array.make n infinity and plans = Array.make n None in
  let next = ref 0 in
  let round_walls =
    in_rounds r ~rounds:(Array.length rounds) (fun k ->
        Array.iter
          (fun (it : Lists.item) ->
            let i = !next in
            incr next;
            let s = now () in
            match Pipeline.plan (Pipeline.request it.params it.graph ~procs:it.procs) with
            | Ok p ->
                latency.(i) <- (now () -. s) *. 1e3;
                plans.(i) <- Some p
            | Error e -> problem r "%s: %s" it.label (Pipeline.error_to_string e))
          rounds.(k))
  in
  let hwm = Procfs.vm_hwm_kb 0 in
  Array.iteri
    (fun i plan ->
      match plan with
      | None ->
          r.failed <- r.failed + 1;
          latency.(i) <- infinity
      | Some p -> (
          match Checks.check_plan p with
          | Ok () -> ()
          | Error e ->
              r.failed <- r.failed + 1;
              latency.(i) <- infinity;
              plans.(i) <- None;
              problem r "%s at p=%d: %s" items.(i).label items.(i).procs e))
    plans;
  (* Quality over distinct requests: the fixed programs recur in every
     round but count once. *)
  let distinct = Hashtbl.create 64 in
  let distinct_plans =
    List.filter_map Fun.id
      (Array.to_list
         (Array.mapi
            (fun i p ->
              let it = items.(i) in
              if Hashtbl.mem distinct (it.label, it.procs) then None
              else begin
                Hashtbl.add distinct (it.label, it.procs) ();
                Option.map (fun p -> (it, p)) p
              end)
            plans))
  in
  let ok_plans = List.map snd distinct_plans in
  if not a.trace then begin
    metric r "setup_s" "s" setup_s;
    let offset = ref 0 in
    let rounds =
      Array.map2
        (fun round wall ->
          let idx = Array.init (Array.length round) (fun k -> !offset + k) in
          offset := !offset + Array.length round;
          (idx, wall))
        rounds round_walls
    in
    timing_metrics r (timing r ~latency ~ok:(fun i -> Option.is_some plans.(i)) ~rounds);
    metric r "ok_share" "share" (float_of_int (n - r.failed) /. float_of_int n);
    metric r "peak_rss_mb" "MB"
      (match hwm with Some kb -> float_of_int kb /. 1024.0 | None -> nan);
    metric r "phi_geomean" "s" (geomean_of (List.map Pipeline.phi ok_plans));
    metric r "tpsa_over_phi_geomean" "ratio"
      (geomean_of (List.map (fun p -> Pipeline.predicted_time p /. Pipeline.phi p) ok_plans));
    metric r "mpmd_speedup_geomean" "ratio"
      (geomean_of
         (List.filter_map
            (fun ((it : Lists.item), p) -> if it.paper then Some (mpmd_speedup p) else None)
            distinct_plans))
  end
  else begin
    let requests = Array.map (fun it -> Replay.Item it) items in
    let converged = Array.make n false in
    let plain, traced =
      replay_pair
        (Replay.create ~traced:false requests)
        (Replay.create ~traced:true
           ~on_plan:(fun i p -> converged.(i) <- p.allocation.solver.converged)
           requests)
    in
    Array.iteri
      (fun i p ->
        match p with
        | Some p when Int64.bits_of_float traced.phi.(i) <> Int64.bits_of_float (Pipeline.phi p) ->
            problem r "%s: traced Phi %.17g differs from timed %.17g" items.(i).label traced.phi.(i)
              (Pipeline.phi p)
        | _ -> ())
      plans;
    layer_metrics a r ~traced ~plain;
    converged_share r (Option.get traced.trace) converged;
    metric r "protocol.request_kb" "kB" 0.0;
    metric r "protocol.reply_kb" "kB" 0.0;
    metric r "daemon.residual_ms" "ms" 0.0;
    metric r "daemon.shed" "count" 0.0;
    metric r "psa.reconfig_share" "share" 0.0;
    cache_metrics r None ~requests:n;
    metric r "plan_cache.seed_win_share" "share" 0.0;
    metric r "plan_cache.seed_gain_rel" "ratio" 0.0
  end

(* ------------------------------------------------------------------ *)
(* serve-hit and serve-drift                                           *)
(* ------------------------------------------------------------------ *)

type served = {
  lists : Lists.serve;
  server : Served.server;
  conns : Served.conn array;
  warm_replies : string option array array;
}

let teardown s =
  Array.iter Served.close s.conns;
  Served.stop s.server

let start_serving a =
  let lists =
    if a.workload = "serve-hit" then Lists.serve_hit ~seed:a.seed ~seconds:a.seconds
    else Lists.serve_drift ~seed:a.seed ~seconds:a.seconds
  in
  let server = Served.start ~exe:a.paradigm in
  match
    let conns = Array.init Lists.connections (fun _ -> Served.connect ~port:server.port) in
    let warm_replies =
      Array.mapi (fun c lines -> Array.map (fun l -> Served.rpc conns.(c) (l ^ "\n")) lines) lists.warmup
    in
    { lists; server; conns; warm_replies }
  with
  | s -> s
  | exception e ->
      Served.stop server;
      raise e

let same_cache (a : Core.Plan_cache.stats) (b : Core.Plan_cache.stats) =
  a.tape_hits = b.tape_hits && a.tape_misses = b.tape_misses && a.warm_hits = b.warm_hits
  && a.warm_shape_hits = b.warm_shape_hits
  && a.warm_procs_hits = b.warm_procs_hits
  && a.warm_misses = b.warm_misses
  && a.coalesce_leaders = b.coalesce_leaders
  && a.coalesce_hits = b.coalesce_hits

let show_cache (s : Core.Plan_cache.stats) =
  Printf.sprintf "tape %d/%d exact %d shape %d procs %d miss %d coalesce %d/%d" s.tape_hits
    s.tape_misses s.warm_hits s.warm_shape_hits s.warm_procs_hits s.warm_misses s.coalesce_hits
    s.coalesce_leaders

let serve a r =
  let setup_s, s = repeat_setup ~reps:3 ~teardown (fun () -> start_serving a) in
  let lists = s.lists in
  let warm_lines = Array.concat (Array.to_list lists.warmup) in
  let timed_lines = Array.concat (Array.to_list lists.timed) in
  let n_warm = Array.length warm_lines and n = Array.length timed_lines in
  r.attempted <- n_warm + n;
  context r "nproc" "%d" (Domain.recommended_domain_count ());
  context r "seed" "%d" a.seed;
  context r "requests" "warm-up %d, timed %d (%s per connection)" n_warm n
    (String.concat "+" (Array.to_list (Array.map (fun l -> string_of_int (Array.length l)) lists.timed)));
  let biggest =
    Array.fold_left
      (Array.fold_left (fun acc rep -> match rep with Some x -> Int.max acc (String.length x) | None -> acc))
      0 s.warm_replies
  in
  let send = Array.map (Array.map (fun l -> l ^ "\n")) lists.timed in
  let reply_bytes = Array.map (fun l -> Array.length l * (biggest + 256)) send in
  let loops = Array.mapi (fun i lines -> Served.loop lines ~reply_bytes:reply_bytes.(i)) send in
  let walls =
    match in_rounds r ~rounds:lists.rounds (Served.run_round s.conns loops ~rounds:lists.rounds) with
    | walls -> walls
    | exception e ->
        teardown s;
        raise e
  in
  let server_stats =
    match
      Option.map Protocol.decode_reply
        (Served.rpc s.conns.(0)
           (Json.to_string (Protocol.encode_stats_request ~id:(Json.Str "stats") ()) ^ "\n"))
    with
    | Some (Ok (_, Protocol.Stats_reply { cache; server = Some srv })) -> Some (cache, srv)
    | _ ->
        problem r "no stats reply from the server";
        None
  in
  let hwm = Procfs.vm_hwm_kb s.server.pid in
  teardown s;
  (* Output checks, after timing. *)
  let check = Checks.memo () in
  let checked request reply =
    match reply with
    | None | Some "" -> Error "no reply"
    | Some reply -> check ~request ~reply
  in
  let served_phi_warm =
    Array.map2
      (fun request reply ->
        match checked request reply with
        | Ok (s : Protocol.plan_summary) -> s.phi
        | Error e ->
            r.failed <- r.failed + 1;
            problem r "warm-up: %s" e;
            nan)
      warm_lines
      (Array.concat (Array.to_list s.warm_replies))
  in
  let latency = Array.concat (Array.to_list (Array.map (fun (l : Served.loop) -> l.latency_ms) loops)) in
  let replies = Array.concat (Array.to_list (Array.map Served.replies loops)) in
  let summaries =
    Array.mapi
      (fun i request ->
        match checked request (Some replies.(i)) with
        | Ok summary -> Some summary
        | Error e ->
            r.failed <- r.failed + 1;
            latency.(i) <- infinity;
            problem r "request %d: %s" i e;
            None)
      timed_lines
  in
  (* Replay the same lines in process: the server's counters and every
     served Phi must match it. *)
  let requests = Array.map (fun l -> Replay.Line l) timed_lines in
  (* Quality metrics count each distinct line once, at its first
     occurrence. *)
  let first =
    let seen = Hashtbl.create 64 in
    Array.map
      (fun l ->
        let fresh = not (Hashtbl.mem seen l) in
        Hashtbl.replace seen l ();
        fresh)
      timed_lines
  in
  let speedups = ref [] in
  let warm_use = Array.make n Pipeline.Off in
  let rounded = Array.make n [||] and shape = Array.make n 0L in
  let converged = Array.make n false in
  let on_plan i (p : Pipeline.plan) =
    warm_use.(i) <- p.cache.warm;
    rounded.(i) <- p.psa.rounded_alloc;
    shape.(i) <- Mdg.Graph.structural_hash p.graph;
    converged.(i) <- p.allocation.solver.converged;
    if first.(i) && not a.trace then speedups := mpmd_speedup p :: !speedups
  in
  let replay ?on_plan ~traced () =
    Replay.create ~cache:(Core.Plan_cache.create ()) ~warmup:warm_lines ?on_plan ~traced requests
  in
  let plain, traced =
    if a.trace then
      let plain, traced = replay_pair (replay ~on_plan ~traced:false ()) (replay ~traced:true ()) in
      (plain, Some traced)
    else (Replay.run_all (replay ~on_plan ~traced:false ()), None)
  in
  let agree name (o : Replay.outcome) =
    (match (server_stats, o.cache_total) with
    | Some (cache, srv), Some mine ->
        if not (same_cache cache mine) then
          problem r "server cache counters [%s] differ from the %s replay's [%s]" (show_cache cache)
            name (show_cache mine);
        if srv.shed <> 0 then problem r "server shed %d connections" srv.shed;
        if srv.served <> n_warm + n then
          problem r "server answered %d lines, %d were sent" srv.served (n_warm + n)
    | _ -> ());
    let mismatches = ref 0 in
    Array.iteri
      (fun i -> function
        | Some (s : Protocol.plan_summary)
          when Int64.bits_of_float s.phi <> Int64.bits_of_float o.phi.(i) ->
            incr mismatches
        | _ -> ())
      summaries;
    Array.iteri
      (fun i phi ->
        if Float.is_finite phi && Int64.bits_of_float phi <> Int64.bits_of_float o.warmup_phi.(i) then
          incr mismatches)
      served_phi_warm;
    if !mismatches > 0 then
      problem r "%d served Phi values differ from the %s replay's" !mismatches name
  in
  Option.iter
    (fun (cache, (srv : Protocol.server_stats)) ->
      context r "server" "served %d, shed %d; cache %s" srv.served srv.shed (show_cache cache))
    server_stats;
  agree "untraced" plain;
  let distinct_summaries =
    List.filter_map Fun.id
      (Array.to_list
         (Array.mapi
            (fun i s ->
              if first.(i) then Option.map (fun (s : Protocol.plan_summary) -> (s.phi, s.t_psa)) s
              else None)
            summaries))
  in
  (* Round k of every connection: its share of the concatenated
     requests. *)
  let rounds =
    Array.mapi
      (fun k wall ->
        let offset = ref 0 in
        let idx =
          Array.concat
            (Array.to_list
               (Array.map
                  (fun lines ->
                    let n = Array.length lines in
                    let lo = k * n / lists.rounds and hi = (k + 1) * n / lists.rounds in
                    let idx = Array.init (hi - lo) (fun j -> !offset + lo + j) in
                    offset := !offset + n;
                    idx)
                  lists.timed))
        in
        (idx, wall))
      walls
  in
  let ((_, p50, _) as served_timing) =
    timing r ~latency ~ok:(fun i -> Option.is_some summaries.(i)) ~rounds
  in
  if not a.trace then begin
    metric r "setup_s" "s" setup_s;
    timing_metrics r served_timing;
    metric r "ok_share" "share" (float_of_int (r.attempted - r.failed) /. float_of_int r.attempted);
    metric r "peak_rss_mb" "MB" (match hwm with Some kb -> float_of_int kb /. 1024.0 | None -> nan);
    metric r "phi_geomean" "s" (geomean_of (List.map fst distinct_summaries));
    metric r "tpsa_over_phi_geomean" "ratio"
      (geomean_of (List.map (fun (phi, t) -> t /. phi) distinct_summaries));
    metric r "mpmd_speedup_geomean" "ratio" (geomean_of !speedups)
  end
  else begin
    let traced = Option.get traced in
    agree "traced" traced;
    layer_metrics a r ~traced ~plain;
    converged_share r (Option.get traced.trace) converged;
    let mean_len lines = Stats.mean (Array.map (fun l -> float_of_int (String.length l)) lines) in
    metric r "protocol.request_kb" "kB" (mean_len timed_lines /. 1e3);
    metric r "protocol.reply_kb" "kB" (mean_len replies /. 1e3);
    let replay_p50 = percentile r ~pct:50 (Array.map (fun t -> t *. 1e3) plain.elapsed) in
    metric r "daemon.residual_ms" "ms" (p50 -. replay_p50);
    metric r "daemon.shed" "count"
      (match server_stats with Some (_, srv) -> float_of_int srv.shed | None -> nan);
    (* Reconfiguration: nodes whose rounded allocation changed since
       the same connection's previous request for that shape and p. *)
    let per_conn = Array.length lists.timed.(0) in
    let last = Hashtbl.create 64 in
    let changed = ref 0 and compared = ref 0 in
    Array.iteri
      (fun i alloc ->
        let req = Option.map (fun (s : Protocol.plan_summary) -> s.procs) summaries.(i) in
        match req with
        | None -> ()
        | Some procs ->
            let key = (i / per_conn, shape.(i), procs) in
            (match Hashtbl.find_opt last key with
            | Some prev when Array.length prev = Array.length alloc ->
                compared := !compared + Array.length alloc;
                Array.iteri (fun k v -> if prev.(k) <> v then incr changed) alloc
            | _ -> ());
            Hashtbl.replace last key alloc)
      rounded;
    metric r "psa.reconfig_share" "share"
      (if !compared = 0 then 0.0 else float_of_int !changed /. float_of_int !compared);
    cache_metrics r plain.cache_timed ~requests:n;
    (* Shape hits against a cache-less cold plan of the same line. *)
    let hits = List.filter (fun i -> warm_use.(i) = Pipeline.Shape_hit) (List.init n Fun.id) in
    let cold =
      Replay.run ~traced:false (Array.of_list (List.map (fun i -> requests.(i)) hits))
    in
    let wins = ref 0 and gain = ref 0.0 in
    List.iteri
      (fun k i ->
        let served = plain.phi.(i) and cold_phi = cold.phi.(k) in
        if served < cold_phi then begin
          incr wins;
          gain := !gain +. ((cold_phi -. served) /. cold_phi)
        end)
      hits;
    let h = float_of_int (List.length hits) in
    metric r "plan_cache.seed_win_share" "share" (if h = 0.0 then 0.0 else float_of_int !wins /. h);
    metric r "plan_cache.seed_gain_rel" "ratio" (if h = 0.0 then 0.0 else !gain /. h)
  end

let () =
  let a = parse_args () in
  let r = report () in
  match if a.workload = "plan-cold" then plan_cold a r else serve a r with
  | () -> exit (if print_report a r then 0 else 1)
  | exception e ->
      prerr_endline ("planbench: " ^ Printexc.to_string e);
      exit 1
