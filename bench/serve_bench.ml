(* Load generator for the plan server (`bench/main.exe -- serve`).

   PR 6's bench only measured the friendliest possible traffic: one
   graph shape, warmed caches, 100 % hits.  Real serving traffic is
   adversarial, so this generator drives four mixes:

   - [near-dup]   the original steady state: one shape, a few
                  parameter variants, warmed — every request a cache
                  hit (throughput ceiling).  Each variant's request
                  line is encoded once before the timed window, so
                  the clients spend no time re-serialising the MDG.
   - [cold-heavy] every request a fresh workgen shape — the all-miss
                  floor: each request pays compile + cold solve.
   - [hot-key]    K clients hammer the same *uncached* key in lockstep
                  rounds, a fresh key each round, until the mix's
                  deadline — the singleflight showcase: coalescing
                  turns N concurrent cold solves into 1 solve + N-1
                  waits.
   - [overload]   a shuffled heterogeneous mix (hot/dup/cold) against
                  a deliberately undersized server (2 workers, 1
                  pending slot) — exercises bounded queueing: excess
                  connections get the typed `overloaded` reply and
                  retry, nothing hangs.

   `serve` runs each mix [repeats] times, because single runs of the
   same code on a shared VM differ by up to half, and emits one row
   per mix into BENCH_serve.json: the median and quartiles of req/s,
   p50 and p99 over the runs, the cache, coalesce and shed columns of
   the median run (by req/s), and failures summed over every run.
   `serve-quick` is the CI smoke variant, one run of each mix, and
   exits non-zero if any request fails, no near-dup request is an
   exact hit (served without entering the solver), or the hot-key mix
   never coalesces. *)

module Daemon = Server.Daemon
module Client = Server.Client

type sample = {
  latency : float;  (* seconds *)
  warm_hit : bool;  (* exact, or served by a coalesced solve *)
  skipped : bool;
  coalesced : bool;
}

type outcome = { samples : sample list; failed : int; shed : int }

let no_outcome = { samples = []; failed = 0; shed = 0 }

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let idx = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))

let sample_of_summary ~latency (s : Server.Protocol.plan_summary) =
  {
    latency;
    warm_hit = s.warm_cache = "hit";
    skipped = s.solve_skipped;
    coalesced = s.coalesced;
  }

(* A reusable rendezvous: the hot-key mix releases all clients into
   the same round together, so their identical requests actually
   overlap in the server instead of trickling in. *)
module Barrier = struct
  type t = {
    lock : Mutex.t;
    cond : Condition.t;
    parties : int;
    mutable count : int;
    mutable phase : int;
    mutable go : bool;
  }

  let create parties =
    {
      lock = Mutex.create ();
      cond = Condition.create ();
      parties;
      count = 0;
      phase = 0;
      go = true;
    }

  (* Block until every party has arrived, then tell all of them the
     same thing: whether the last to arrive still found [deadline]
     ahead.  So every client runs the same rounds, and none is left
     waiting at a barrier the others have stopped visiting. *)
  let await b ~deadline =
    Mutex.protect b.lock (fun () ->
        let phase = b.phase in
        b.count <- b.count + 1;
        if b.count = b.parties then begin
          b.count <- 0;
          b.phase <- phase + 1;
          b.go <- Unix.gettimeofday () < deadline;
          Condition.broadcast b.cond
        end
        else
          while b.phase = phase do
            Condition.wait b.cond b.lock
          done;
        b.go)
end

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* The request mix: one graph shape, [variants] parameter sets that
   differ in the send start-up constant (as successive re-calibrations
   would), hence [variants] distinct cache fingerprints. *)
let make_variants ~variants params =
  let tf = Costmodel.Params.transfer params in
  List.init variants (fun i ->
      let scale = 1.0 +. (0.02 *. float_of_int i) in
      let p =
        Costmodel.Params.make ~transfer:{ tf with t_ss = tf.t_ss *. scale }
      in
      List.iter
        (fun kernel ->
          Costmodel.Params.set_processing p kernel
            (Costmodel.Params.processing params kernel))
        (Costmodel.Params.known_kernels params);
      p)

(* Synthetic-kernel recursive workloads: distinct seeds give distinct
   structural hashes (irregular recursion via cutoff/wiring), so every
   seed is a fresh cache key under the same parameter set. *)
let workgen_spec =
  {
    Workgen.default_spec with
    depth = 2;
    branching = 3;
    cutoff = 0.15;
    wiring = 0.3;
  }

let workgen_graph seed = Workgen.generate workgen_spec ~seed

(* The hot-key contended graph: a deeper recursion whose cold plan is
   long enough that concurrent requests reliably land while the leader
   is still solving.  A whole round, one cold plan plus the coalesced
   replies, takes about 15 ms on a 2-vCPU Xeon VM, so the mix runs for
   a fixed duration rather than a fixed number of rounds. *)
let hot_spec = { workgen_spec with depth = 3 }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

type row = {
  mix : string;
  workload : string;
  clients : int;
  duration : float;
  requests : int;
  failed : int;
  shed : int;  (* client-observed overloaded replies *)
  req_per_s : float;
  p50_ms : float;
  p99_ms : float;
  warm_hit_rate : float;
  solve_skipped_rate : float;
  coalesced_rate : float;
  queue_depth_max : int;  (* sampled while the mix ran *)
  stats : Core.Plan_cache.stats;
  srv_shed : int;
}

let make_row ~mix ~workload ~clients ~elapsed ~queue_depth_max ~stats ~srv_shed
    outcomes =
  let samples = List.concat_map (fun (o : outcome) -> o.samples) outcomes in
  let failed =
    List.fold_left (fun acc (o : outcome) -> acc + o.failed) 0 outcomes
  in
  let shed =
    List.fold_left (fun acc (o : outcome) -> acc + o.shed) 0 outcomes
  in
  let requests = List.length samples in
  let latencies = Array.of_list (List.map (fun s -> s.latency) samples) in
  Array.sort compare latencies;
  let rate pred =
    if requests = 0 then 0.0
    else
      float_of_int (List.length (List.filter pred samples))
      /. float_of_int requests
  in
  {
    mix;
    workload;
    clients;
    duration = elapsed;
    requests;
    failed;
    shed;
    req_per_s = float_of_int requests /. elapsed;
    p50_ms = 1e3 *. percentile latencies 50.0;
    p99_ms = 1e3 *. percentile latencies 99.0;
    warm_hit_rate = rate (fun s -> s.warm_hit);
    solve_skipped_rate = rate (fun s -> s.skipped);
    coalesced_rate = rate (fun s -> s.coalesced);
    queue_depth_max;
    stats;
    srv_shed;
  }

let print_row r =
  Printf.printf
    "[%s] %d clients, %.1f s: %d requests (%d failed, %d shed), %.1f req/s\n\
    \  latency p50 %.2f ms, p99 %.2f ms\n\
    \  cache: warm hits %.1f%%, solve skipped %.1f%%, coalesced %.1f%%\n\
    \  server: warm %d hits / %d misses, coalesce %d hits on %d leaders, \
     shed %d, max queue depth %d\n\
     %!"
    r.mix r.clients r.duration r.requests r.failed r.shed r.req_per_s r.p50_ms
    r.p99_ms (100.0 *. r.warm_hit_rate)
    (100.0 *. r.solve_skipped_rate)
    (100.0 *. r.coalesced_rate)
    r.stats.warm_hits r.stats.warm_misses r.stats.coalesce_hits
    r.stats.coalesce_leaders r.srv_shed r.queue_depth_max

(* ------------------------------------------------------------------ *)
(* Mix harness                                                         *)
(* ------------------------------------------------------------------ *)

(* Run [clients] domains against a fresh daemon, sampling the queue
   depth from the main domain while they run.  [client k] does the
   whole per-client loop and returns its outcome. *)
let with_daemon ?(options = Daemon.default_options) ~mix ~workload ~clients
    ~client () =
  let srv = Daemon.start ~options () in
  Fun.protect ~finally:(fun () -> Daemon.stop srv) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let doms =
    List.init clients (fun k -> Domain.spawn (fun () -> client srv k))
  in
  (* Poll queue depth while clients run: the daemon is in-process, so
     the max depth the admission control reached is observable
     directly.  Domain.join has no timeout, so each client gets a
     collector domain that flips a counter, and the main domain polls
     until all have finished. *)
  let depth_max = ref 0 in
  let done_count = Atomic.make 0 in
  let results = Array.make clients no_outcome in
  let collectors =
    List.mapi
      (fun i d ->
        Domain.spawn (fun () ->
            let r = Domain.join d in
            results.(i) <- r;
            Atomic.incr done_count))
      doms
  in
  while Atomic.get done_count < clients do
    depth_max := max !depth_max (Daemon.queue_depth srv);
    Unix.sleepf 0.005
  done;
  List.iter Domain.join collectors;
  let elapsed = Unix.gettimeofday () -. t0 in
  make_row ~mix ~workload ~clients ~elapsed ~queue_depth_max:!depth_max
    ~stats:(Daemon.stats srv)
    ~srv_shed:(Daemon.connections_shed srv)
    (Array.to_list results)

(* ------------------------------------------------------------------ *)
(* Mix 1: near-duplicate steady state (the PR-6 bench)                 *)
(* ------------------------------------------------------------------ *)

(* One request line per parameter variant, sent as is: the timed loop
   reads and decodes only the reply. *)
let near_dup_loop ~port ~deadline ~lines k =
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let n_variants = Array.length lines in
  let samples = ref [] in
  let failed = ref 0 in
  let i = ref k in
  while Unix.gettimeofday () < deadline do
    let line = lines.(!i mod n_variants) in
    incr i;
    let t0 = Unix.gettimeofday () in
    Client.send_line c line;
    let reply = Client.recv_line c in
    let latency = Unix.gettimeofday () -. t0 in
    match Result.bind reply Server.Protocol.decode_reply with
    | Ok (_, Server.Protocol.Plan_reply s) ->
        samples := sample_of_summary ~latency s :: !samples
    | Ok _ | Error _ -> incr failed
  done;
  { samples = !samples; failed = !failed; shed = 0 }

let run_near_dup ~duration ~clients ~variants () =
  let gt = Machine.Ground_truth.cm5_like () in
  let levels = 2 and n = 128 in
  let graph = Kernels.Strassen_mdg.graph_recursive ~levels ~n in
  let params, _, _ =
    Machine.Measure.calibrate gt
      ~procs:[ 1; 2; 4; 8; 16; 32; 64 ]
      (Kernels.Strassen_mdg.kernels_recursive ~levels ~n)
  in
  let lines =
    Array.of_list
      (List.map
         (fun params ->
           Server.Json.to_string
             (Server.Protocol.encode_plan_request ~params graph ~procs:64))
         (make_variants ~variants params))
  in
  let srv = Daemon.start () in
  Fun.protect ~finally:(fun () -> Daemon.stop srv) @@ fun () ->
  let port = Daemon.port srv in
  (* Warm-up: solve each variant once so the timed window measures the
     serving steady state, not first-compile cost. *)
  let w = Client.connect ~port () in
  Array.iter
    (fun line ->
      Client.send_line w line;
      match Result.bind (Client.recv_line w) Server.Protocol.decode_reply with
      | Ok (_, Server.Protocol.Plan_reply _) -> ()
      | Ok _ -> failwith "serve bench warm-up: not a plan reply"
      | Error msg -> failwith ("serve bench warm-up failed: " ^ msg))
    lines;
  Client.close w;
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. duration in
  let outcomes =
    List.init clients (fun k ->
        Domain.spawn (fun () -> near_dup_loop ~port ~deadline ~lines k))
    |> List.map Domain.join
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  make_row ~mix:"near-dup" ~workload:"strassen2:128" ~clients ~elapsed
    ~queue_depth_max:0 ~stats:(Daemon.stats srv)
    ~srv_shed:(Daemon.connections_shed srv)
    outcomes

(* ------------------------------------------------------------------ *)
(* Mix 2: cold-heavy (every request a fresh shape)                     *)
(* ------------------------------------------------------------------ *)

let run_cold_heavy ~duration ~clients () =
  let params = Costmodel.Params.cm5 () in
  let deadline = Unix.gettimeofday () +. duration in
  let client srv k =
    let c = Client.connect ~port:(Daemon.port srv) () in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    let samples = ref [] and failed = ref 0 in
    let i = ref 0 in
    while Unix.gettimeofday () < deadline do
      (* Disjoint seed ranges per client: no two requests in the run
         share a cache key. *)
      let graph = workgen_graph ((k * 1_000_000) + !i) in
      incr i;
      let t0 = Unix.gettimeofday () in
      (match Client.plan ~params c graph ~procs:16 with
      | Ok s ->
          samples :=
            sample_of_summary ~latency:(Unix.gettimeofday () -. t0) s
            :: !samples
      | Error _ -> incr failed)
    done;
    { samples = !samples; failed = !failed; shed = 0 }
  in
  with_daemon ~mix:"cold-heavy"
    ~workload:("random:" ^ Workgen.spec_to_string workgen_spec)
    ~clients ~client ()

(* ------------------------------------------------------------------ *)
(* Mix 3: hot-key contention (the singleflight showcase)               *)
(* ------------------------------------------------------------------ *)

let run_hot_key ~duration ~clients () =
  let params = Costmodel.Params.cm5 () in
  let barrier = Barrier.create clients in
  let deadline = Unix.gettimeofday () +. duration in
  let client srv _k =
    let c = Client.connect ~port:(Daemon.port srv) () in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    let samples = ref [] and failed = ref 0 in
    let rec round r =
      (* Every client requests the same *fresh* key: one leader
         solves, the rest should coalesce onto its flight. *)
      let graph = Workgen.generate hot_spec ~seed:(7_000_000 + r) in
      if Barrier.await barrier ~deadline then begin
        let t0 = Unix.gettimeofday () in
        (match Client.plan ~params c graph ~procs:16 with
        | Ok s ->
            samples :=
              sample_of_summary ~latency:(Unix.gettimeofday () -. t0) s
              :: !samples
        | Error _ -> incr failed);
        round (r + 1)
      end
    in
    round 0;
    { samples = !samples; failed = !failed; shed = 0 }
  in
  with_daemon ~mix:"hot-key"
    ~workload:("random:" ^ Workgen.spec_to_string hot_spec)
    ~clients ~client ()

(* ------------------------------------------------------------------ *)
(* Mix 4: shuffled heterogeneous traffic against an undersized server  *)
(* ------------------------------------------------------------------ *)

(* Deterministic per-client request stream (LCG, same constants as
   workgen's): ~1/2 hot-pool repeats, ~1/4 near-dup parameter
   variants, ~1/4 cold fresh shapes, shuffled. *)
let lcg state =
  state := Int64.add (Int64.mul !state 6364136223846793005L) 1442695040888963407L;
  Int64.to_int (Int64.shift_right_logical !state 33)

let run_overload ~duration ~clients ~workers ~max_pending () =
  let params = Costmodel.Params.cm5 () in
  let variants = Array.of_list (make_variants ~variants:3 params) in
  let pool = Array.init 4 workgen_graph in
  let deadline = Unix.gettimeofday () +. duration in
  let options = { Daemon.default_options with workers; max_pending } in
  let client srv k =
    let port = Daemon.port srv in
    let samples = ref [] and failed = ref 0 and shed = ref 0 in
    let rng = ref (Int64.of_int ((k * 2654435761) + 12345)) in
    let cold = ref 0 in
    let conn = ref None in
    let reconnect () =
      (match !conn with Some c -> Client.close c | None -> ());
      conn := None;
      match Client.connect ~port () with
      | c ->
          conn := Some c;
          Some c
      | exception Unix.Unix_error _ -> None
    in
    let get_conn () = match !conn with Some c -> Some c | None -> reconnect () in
    while Unix.gettimeofday () < deadline do
      match get_conn () with
      | None -> Unix.sleepf 0.01
      | Some c -> (
          let pick = lcg rng mod 4 in
          let graph, req_params =
            if pick < 2 then (pool.(lcg rng mod Array.length pool), params)
            else if pick = 2 then
              (pool.(lcg rng mod Array.length pool),
               variants.(lcg rng mod Array.length variants))
            else begin
              incr cold;
              (workgen_graph ((k * 1_000_000) + 500_000 + !cold), params)
            end
          in
          let t0 = Unix.gettimeofday () in
          match Client.plan ~params:req_params c graph ~procs:16 with
          | Ok s ->
              samples :=
                sample_of_summary ~latency:(Unix.gettimeofday () -. t0) s
                :: !samples
          | Error msg ->
              if
                String.length msg >= 10
                && String.sub msg 0 10 = Server.Protocol.overloaded_kind
              then begin
                (* Typed shed: the server closed this connection after
                   the reply — honour the hint, then reconnect. *)
                incr shed;
                ignore (reconnect ());
                Unix.sleepf 0.02
              end
              else begin
                incr failed;
                ignore (reconnect ())
              end
          | exception Unix.Unix_error _ ->
              (* The send raced the server's post-shed close. *)
              incr shed;
              ignore (reconnect ());
              Unix.sleepf 0.02)
    done;
    (match !conn with Some c -> Client.close c | None -> ());
    { samples = !samples; failed = !failed; shed = !shed }
  in
  with_daemon ~options ~mix:"overload"
    ~workload:
      (Printf.sprintf "mixed hot/dup/cold, %d workers + %d pending" workers
         max_pending)
    ~clients ~client ()

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* A mix's repeated runs: [median] is the run with the median req/s,
   whose count columns the row reports; the three timing columns are
   summarised over [runs]. *)
type summary = { median : row; runs : row list }

let repeats = 5

(* Nearest-rank quartiles (q1, median, q3) of one column over the runs. *)
let quartiles runs column =
  let xs = Array.of_list (List.map column runs) in
  Array.sort compare xs;
  (percentile xs 25.0, percentile xs 50.0, percentile xs 75.0)

let repeat run =
  let runs = List.init repeats (fun _ -> run ()) in
  List.iter print_row runs;
  let by_rate = List.sort (fun a b -> compare a.req_per_s b.req_per_s) runs in
  { median = List.nth by_rate (repeats / 2); runs }

let write_json path summaries =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"experiment\": \"serve\",\n  \"runs_per_mix\": %d,\n  \"rows\": [\n"
    repeats;
  List.iteri
    (fun i { median = r; runs } ->
      let column name f =
        let q1, med, q3 = quartiles runs f in
        Printf.sprintf "\"%s\": %.3f, \"%s_q1\": %.3f, \"%s_q3\": %.3f" name med
          name q1 name q3
      in
      Printf.fprintf oc
        "    {\"mix\": %S, \"workload\": %S, \"clients\": %d, \"runs\": %d,\n\
        \     %s,\n\
        \     %s,\n\
        \     %s,\n\
        \     \"failed\": %d,\n\
        \     \"median_run\": {\"duration_seconds\": %.3f, \"requests\": %d, \
         \"shed\": %d,\n\
        \       \"warm_hit_rate\": %.4f, \"solve_skipped_rate\": %.4f, \
         \"coalesced_rate\": %.4f,\n\
        \       \"coalesce_hits\": %d, \"coalesce_leaders\": %d,\n\
        \       \"server_shed\": %d, \"queue_depth_max\": %d}}%s\n"
        r.mix r.workload r.clients (List.length runs)
        (column "req_per_s" (fun r -> r.req_per_s))
        (column "p50_ms" (fun r -> r.p50_ms))
        (column "p99_ms" (fun r -> r.p99_ms))
        (List.fold_left (fun acc r -> acc + r.failed) 0 runs)
        r.duration r.requests r.shed r.warm_hit_rate r.solve_skipped_rate
        r.coalesced_rate r.stats.coalesce_hits r.stats.coalesce_leaders
        r.srv_shed r.queue_depth_max
        (if i = List.length summaries - 1 then "" else ","))
    summaries;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n" path

let header title =
  print_newline ();
  print_endline (String.make 72 '-');
  print_endline title;
  print_endline (String.make 72 '-')

let serve () =
  header
    (Printf.sprintf
       "Plan server under load: near-dup / cold-heavy / hot-key / overload, \
        %d runs each"
       repeats);
  let near = repeat (run_near_dup ~duration:10.0 ~clients:4 ~variants:3) in
  let cold = repeat (run_cold_heavy ~duration:10.0 ~clients:4) in
  let hot = repeat (run_hot_key ~duration:10.0 ~clients:4) in
  let overload =
    repeat (run_overload ~duration:8.0 ~clients:6 ~workers:2 ~max_pending:1)
  in
  write_json "BENCH_serve.json" [ near; cold; hot; overload ]

(* CI smoke variant: short runs of the near-dup, cold-heavy and
   hot-key mixes with hard floors — any failed request, a near-dup mix
   with no exact hit, or a hot-key mix that never coalesces fails the
   build. *)
let serve_quick () =
  header "Plan server smoke: near-dup / cold-heavy / hot-key";
  let near = run_near_dup ~duration:2.0 ~clients:2 ~variants:2 () in
  let cold = run_cold_heavy ~duration:2.0 ~clients:2 () in
  let hot = run_hot_key ~duration:2.0 ~clients:4 () in
  List.iter print_row [ near; cold; hot ];
  List.iter
    (fun r ->
      if r.failed > 0 then
        failwith (Printf.sprintf "serve-quick[%s]: failed requests" r.mix);
      if r.requests = 0 then
        failwith (Printf.sprintf "serve-quick[%s]: no requests completed" r.mix))
    [ near; cold; hot ];
  if near.solve_skipped_rate <= 0.0 then
    failwith "serve-quick: no exact cache hit on the near-dup mix";
  if hot.stats.coalesce_hits <= 0 then
    failwith "serve-quick: hot-key mix never coalesced concurrent misses"
