(* In-process replays of a workload's request list on one thread.

   Each request line goes through the calls the daemon makes for it:
   [Server.Protocol.decode_request], [Core.Pipeline.plan], then
   [Server.Protocol.plan_reply] and [Server.Json.to_string]; a plan-cold
   item goes through [Core.Pipeline.plan] alone.  A traced replay wraps
   each call in a benchmark-side span on the monotonic clock and takes
   the program's own [pipeline.*] and [solver.*] spans, emitted during a
   call, as that call's children. *)

module Json = Server.Json
module Protocol = Server.Protocol
module Pipeline = Core.Pipeline

type request = Line of string | Item of Lists.item

(* Work counts per request, from the program's own telemetry. *)
type trace = {
  spans : Spans.t;
  recorder : Obs.Recorder.t;
  compiles : int array;
  solves : int array;
  stages : int array;
  iterations : int array;
  hvps : int array;
  cg_iterations : int array;
}

type outcome = {
  phi : float array;  (** [nan] when the request failed *)
  warmup_phi : float array;
  elapsed : float array;  (** seconds per request *)
  protocol_words : float array;  (** minor words allocated in decode + encode *)
  pipeline_words : float array;  (** minor words allocated in [Pipeline.plan] *)
  minor_collections : int;
  major_collections : int;
  cache_timed : Core.Plan_cache.stats option;  (** counter deltas over the requests *)
  cache_total : Core.Plan_cache.stats option;  (** counters after warm-up and requests *)
  trace : trace option;
}

let stats_delta (a : Core.Plan_cache.stats) (b : Core.Plan_cache.stats) =
  {
    b with
    Core.Plan_cache.tape_hits = b.tape_hits - a.tape_hits;
    tape_misses = b.tape_misses - a.tape_misses;
    warm_hits = b.warm_hits - a.warm_hits;
    warm_shape_hits = b.warm_shape_hits - a.warm_shape_hits;
    warm_procs_hits = b.warm_procs_hits - a.warm_procs_hits;
    warm_misses = b.warm_misses - a.warm_misses;
    coalesce_leaders = b.coalesce_leaders - a.coalesce_leaders;
    coalesce_hits = b.coalesce_hits - a.coalesce_hits;
  }

(* The benchmark's lines all carry params and no processor bound, so
   the daemon plans them with its base configuration. *)
let decode line =
  match Protocol.decode_request line with
  | Ok (id, Protocol.Plan ({ params = Some _; pb = None; _ } as req)) -> Some (id, req)
  | Ok _ | Error _ -> None

let plan_request config (req : Protocol.plan_request) =
  Pipeline.plan ~config (Pipeline.request (Option.get req.params) req.graph ~procs:req.procs)

(* Fold the program events of one [Pipeline.plan] call into the trace:
   its spans become descendants of the benchmark's span [parent], which
   covers [lo, hi].  The program stamps spans with [Obs.now], another
   clock, so they are shifted to start the outermost one at [lo] and
   clipped to their parent. *)
let absorb tr ~req ~parent ~lo ~hi =
  let events = Obs.Recorder.events tr.recorder in
  Obs.Recorder.clear tr.recorder;
  let series_value series key = Option.value ~default:0.0 (List.assoc_opt key series) in
  let count a v = a.(req) <- a.(req) + int_of_float v in
  List.iter
    (function
      | Obs.Events.Counter { name = "solver.stage"; series; _ } ->
          count tr.stages 1.0;
          count tr.iterations (series_value series "iterations")
      | Obs.Events.Counter { name = "solver.cg_iters"; series; _ } ->
          count tr.iterations (series_value series "newton_iters");
          count tr.cg_iterations (series_value series "cg_iters")
      | Obs.Events.Counter { name = "solver.hvp"; series; _ } ->
          count tr.hvps (series_value series "hvps")
      | _ -> ())
    events;
  let completes =
    List.filter_map
      (function
        | Obs.Events.Complete { name; ts; dur; pid = 0; _ } -> Some (name, ts, ts +. dur)
        | _ -> None)
      events
    |> Array.of_list
  in
  let n = Array.length completes in
  if n > 0 then begin
    let parents = Spans.nest_completed (Array.map (fun (_, a, b) -> (a, b)) completes) in
    let _, root_start, _ = completes.(n - 1) in
    let shift = lo -. root_start in
    let ids = Array.make n parent and bounds = Array.make n (lo, hi) in
    for i = n - 1 downto 0 do
      let name, a, b = completes.(i) in
      let pid, (plo, phi) =
        if parents.(i) < 0 then (parent, (lo, hi))
        else (ids.(parents.(i)), bounds.(parents.(i)))
      in
      let start = Float.min phi (Float.max plo (a +. shift)) in
      let stop = Float.max start (Float.min phi (b +. shift)) in
      bounds.(i) <- (start, stop);
      ids.(i) <- Spans.add tr.spans { Spans.name; req; parent = pid; start; stop };
      if name = "solver.compile" then count tr.compiles 1.0;
      if name = "solver.solve" then count tr.solves 1.0
    done
  end

(* A replay in progress: the requests, the configuration they are
   planned with, and what has been measured so far. *)
type t = {
  requests : request array;
  cache : Core.Plan_cache.t option;
  config : Pipeline.config;
  on_plan : int -> Pipeline.plan -> unit;
  cache_before : Core.Plan_cache.stats option;
  result : outcome;
  mutable minor : int;
  mutable major : int;
}

(* Start a replay of [requests], planning the [warmup] lines first,
   untimed.  [cache] gives the replay a plan cache, as the daemon has;
   [on_plan i plan] sees each successful plan after its request's time
   is taken. *)
let create ?cache ?(warmup = [||]) ?(on_plan = fun _ _ -> ()) ~traced requests =
  let n = Array.length requests in
  let trace =
    if not traced then None
    else
      Some
        {
          spans = Spans.create ();
          recorder = Obs.Recorder.create ();
          compiles = Array.make n 0;
          solves = Array.make n 0;
          stages = Array.make n 0;
          iterations = Array.make n 0;
          hvps = Array.make n 0;
          cg_iterations = Array.make n 0;
        }
  in
  let base =
    match cache with
    | Some c -> Pipeline.(with_cache c default_config)
    | None -> Pipeline.default_config
  in
  let warmup_phi =
    Array.map
      (fun l ->
        match Option.map (fun (_, req) -> plan_request base req) (decode l) with
        | Some (Ok p) -> Pipeline.phi p
        | Some (Error _) | None -> nan)
      warmup
  in
  {
    requests;
    cache;
    config =
      (match trace with
      | Some tr -> Pipeline.with_obs (Obs.Recorder.sink tr.recorder) base
      | None -> base);
    on_plan;
    cache_before = Option.map Core.Plan_cache.stats cache;
    minor = 0;
    major = 0;
    result =
      {
        phi = Array.make n nan;
        warmup_phi;
        elapsed = Array.make n 0.0;
        protocol_words = Array.make n 0.0;
        pipeline_words = Array.make n 0.0;
        minor_collections = 0;
        major_collections = 0;
        cache_timed = None;
        cache_total = None;
        trace;
      };
  }

(* Replay request [i]. *)
let step t i =
  let o = t.result and config = t.config in
  let gc0 = Gc.quick_stat () in
  let span tr ~parent name start stop =
    Spans.add tr.spans { Spans.name; req = i; parent; start; stop }
  in
  let t0 = Served.now () in
  let root = Option.map (fun tr -> span tr ~parent:(-1) "request" t0 t0) o.trace in
  (* The program's events are folded in after the request's time is
     taken. *)
  let pending = ref None in
  let call_plan plan =
    let w0 = Gc.minor_words () in
    let a = Served.now () in
    let r = plan () in
    let b = Served.now () in
    o.pipeline_words.(i) <- Gc.minor_words () -. w0;
    (match (o.trace, root) with
    | Some tr, Some root -> pending := Some (span tr ~parent:root "plan" a b, a, b)
    | _ -> ());
    r
  in
  let result =
    match t.requests.(i) with
    | Item it ->
        call_plan (fun () ->
            Pipeline.plan ~config (Pipeline.request it.params it.graph ~procs:it.procs))
    | Line l -> (
        let w0 = Gc.minor_words () in
        let a = Served.now () in
        let decoded = decode l in
        let b = Served.now () in
        let w1 = Gc.minor_words () in
        Option.iter
          (fun tr -> ignore (span tr ~parent:(Option.get root) "decode_request" a b))
          o.trace;
        match decoded with
        | None ->
            o.protocol_words.(i) <- w1 -. w0;
            Error (Pipeline.Invalid_request "undecodable line")
        | Some (id, req) ->
            let r = call_plan (fun () -> plan_request config req) in
            let w2 = Gc.minor_words () in
            let a = Served.now () in
            let reply =
              match r with
              | Ok p -> Protocol.plan_reply ~id p
              | Error e -> Protocol.pipeline_error_reply ~id e
            in
            ignore (Sys.opaque_identity (Json.to_string reply));
            let b = Served.now () in
            o.protocol_words.(i) <- w1 -. w0 +. (Gc.minor_words () -. w2);
            Option.iter
              (fun tr -> ignore (span tr ~parent:(Option.get root) "plan_reply" a b))
              o.trace;
            r)
  in
  let t1 = Served.now () in
  o.elapsed.(i) <- t1 -. t0;
  let gc1 = Gc.quick_stat () in
  t.minor <- t.minor + gc1.minor_collections - gc0.minor_collections;
  t.major <- t.major + gc1.major_collections - gc0.major_collections;
  (match (o.trace, root) with
  | Some tr, Some root ->
      Spans.close tr.spans root t1;
      Option.iter (fun (parent, lo, hi) -> absorb tr ~req:i ~parent ~lo ~hi) !pending
  | _ -> ());
  match result with
  | Ok p ->
      o.phi.(i) <- Pipeline.phi p;
      t.on_plan i p
  | Error _ -> ()

let finish t =
  let cache_total = Option.map Core.Plan_cache.stats t.cache in
  {
    t.result with
    minor_collections = t.minor;
    major_collections = t.major;
    cache_timed =
      (match (t.cache_before, cache_total) with
      | Some a, Some b -> Some (stats_delta a b)
      | _ -> None);
    cache_total;
  }

let length t = Array.length t.requests

let run_all t =
  for i = 0 to length t - 1 do
    step t i
  done;
  finish t

let run ?cache ?warmup ?on_plan ~traced requests =
  run_all (create ?cache ?warmup ?on_plan ~traced requests)

(* Replay the same requests in several ways, alternating blocks of
   [block] requests between them, so that the machine's speed drifting
   over the run slows them alike. *)
let interleaved ~block replays =
  let n = length (List.hd replays) in
  let rec go lo =
    if lo < n then begin
      let hi = Int.min n (lo + block) in
      List.iter (fun t -> for i = lo to hi - 1 do step t i done) replays;
      go hi
    end
  in
  go 0;
  List.map finish replays
