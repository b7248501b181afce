type options = {
  addr : string;
  port : int;
  workers : int;
  backlog : int;
  max_pending : int;
  config : Core.Pipeline.config;
  default_params : Costmodel.Params.t Lazy.t;
}

let default_options =
  {
    addr = "127.0.0.1";
    port = 0;
    workers = 4;
    backlog = 64;
    max_pending = 64;
    config = Core.Pipeline.default_config;
    default_params = lazy (Costmodel.Params.cm5 ());
  }

(* Per-op latency histogram bucket upper bounds (ms); the final bucket
   is the overflow.  Log-spaced: the interesting split is protocol-only
   ops (sub-ms), cache hits (~1 ms), warm solves (~10 ms) and cold
   solves (~100 ms+). *)
let latency_bounds_ms = [| 1.0; 3.0; 10.0; 30.0; 100.0; 300.0; 1000.0 |]

let latency_ops = [| "plan"; "stats"; "ping"; "error" |]

type t = {
  options : options;
  listen_fd : Unix.file_descr;
  bound_port : int;
  cache : Core.Plan_cache.t;
  obs : Obs.t;
  stopping : bool Atomic.t;
  served : int Atomic.t;
  accepted : int Atomic.t;
  shed : int Atomic.t;
  queue : Unix.file_descr Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  (* Workers currently holding a connection; guarded by [lock].  The
     admission invariant is [busy + Queue.length queue <= workers +
     max_pending]: a connection is admitted only if a worker slot or a
     pending slot is free for it, otherwise it is shed. *)
  mutable busy : int;
  (* latency.(op).(bucket) counts answered requests; guarded by [lock]
     (one increment per request — negligible next to the request). *)
  latency : int array array;
  mutable domains : unit Domain.t list;
}

(* How often blocked reads/accepts re-check the stop flag. *)
let poll_interval = 0.05

(* ------------------------------------------------------------------ *)
(* Buffered line reading over a raw fd with a receive timeout          *)
(* ------------------------------------------------------------------ *)

(* The longest request line the server reads.  The largest real
   request, strassen:4 with 10,004 nodes, encodes to 727,145 bytes; the
   cap only stops a client that never sends '\n' from growing a
   worker's buffer without bound. *)
let max_line_bytes = 16 * 1024 * 1024

type read_result = Line of string | Too_long | Eof | Timeout

type reader = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  pending : Buffer.t;  (* bytes read but not yet terminated by '\n' *)
  lines : string Queue.t;  (* complete lines, oldest first *)
  (* A line past [max_line_bytes] arrived after the queued ones; the
     reader reads nothing more. *)
  mutable too_long : bool;
}

let make_reader fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO poll_interval;
  {
    fd;
    chunk = Bytes.create 65536;
    pending = Buffer.create 256;
    lines = Queue.create ();
    too_long = false;
  }

let rec read_line r =
  match Queue.take_opt r.lines with
  | Some line -> Line line
  | None when r.too_long -> Too_long
  | None -> (
      match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
      | 0 ->
          (* A partial trailing line is still a request: it will fail
             JSON parsing and be answered before the close. *)
          if Buffer.length r.pending > 0 then begin
            let line = Buffer.contents r.pending in
            Buffer.clear r.pending;
            Line line
          end
          else Eof
      | n ->
          (* Append [chunk.[start, stop)] to the pending line, unless
             that takes it past the cap. *)
          let append start stop =
            let len = stop - start in
            if Buffer.length r.pending + len > max_line_bytes then begin
              Buffer.reset r.pending;
              r.too_long <- true;
              false
            end
            else begin
              Buffer.add_subbytes r.pending r.chunk start len;
              true
            end
          in
          let rec split start =
            match Bytes.index_from_opt r.chunk start '\n' with
            | Some nl when nl < n ->
                if append start nl then begin
                  let line = Buffer.contents r.pending in
                  Buffer.clear r.pending;
                  Queue.add line r.lines;
                  split (nl + 1)
                end
            | _ -> ignore (append start n : bool)
          in
          split 0;
          read_line r
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Timeout
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line r
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> Eof)

let write_line fd line =
  let data = line ^ "\n" in
  let len = String.length data in
  let rec go off =
    if off < len then
      match Unix.write_substring fd data off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  match go 0 with
  | () -> true
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> false

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let plan_config t (req : Protocol.plan_request) =
  let config = { t.options.config with obs = t.obs; cache = Some t.cache } in
  match req.pb with
  | None -> config
  | Some pb ->
      {
        config with
        psa_options = { config.psa_options with pb = Core.Psa.Fixed pb };
      }

let server_stats t =
  let queue_depth, latency =
    Mutex.protect t.lock (fun () ->
        (Queue.length t.queue, Array.map Array.copy t.latency))
  in
  {
    Protocol.queue_depth;
    max_pending = t.options.max_pending;
    shed = Atomic.get t.shed;
    accepted = Atomic.get t.accepted;
    served = Atomic.get t.served;
    bounds_ms = Array.copy latency_bounds_ms;
    latency =
      List.init (Array.length latency_ops) (fun i ->
          { Protocol.op = latency_ops.(i); buckets = latency.(i) });
  }

let handle t ~id request =
  match request with
  | Protocol.Ping -> Protocol.pong_reply ~id
  | Protocol.Stats ->
      Protocol.stats_reply ~id ~server:(server_stats t)
        (Core.Plan_cache.stats t.cache)
  | Protocol.Plan req -> (
      let params =
        match req.params with
        | Some p -> p
        | None -> Lazy.force t.options.default_params
      in
      let config = plan_config t req in
      match
        Core.Pipeline.plan ~config
          (Core.Pipeline.request params req.graph ~procs:req.procs)
      with
      | Ok plan -> Protocol.plan_reply ~id plan
      | Error e -> Protocol.pipeline_error_reply ~id e)

let op_index = function
  | Protocol.Plan _ -> 0
  | Protocol.Stats -> 1
  | Protocol.Ping -> 2

let error_op = 3

let record_latency t ~op dt_ms =
  let n = Array.length latency_bounds_ms in
  let b = ref 0 in
  while !b < n && dt_ms > latency_bounds_ms.(!b) do
    incr b
  done;
  Mutex.protect t.lock (fun () ->
      t.latency.(op).(!b) <- t.latency.(op).(!b) + 1)

(* [line] is [None] for a line past [max_line_bytes]. *)
let answer t line =
  let t0 = Obs.now () in
  let op, reply =
    match line with
    | None ->
        ( error_op,
          Protocol.error_reply ~id:Json.Null ~kind:"request_too_large"
            (Printf.sprintf "request line longer than %d bytes" max_line_bytes)
        )
    | Some line -> (
        match Protocol.decode_request line with
        | Error (id, msg) ->
            (error_op, Protocol.error_reply ~id ~kind:"protocol_error" msg)
        | Ok (id, request) -> (
            match handle t ~id request with
            | reply -> (op_index request, reply)
            | exception exn ->
                (* A bug in a pipeline stage must not take the worker
                   (and with it every queued connection) down. *)
                ( error_op,
                  Protocol.error_reply ~id ~kind:"internal_error"
                    (Printexc.to_string exn) )))
  in
  record_latency t ~op (1e3 *. (Obs.now () -. t0));
  Atomic.incr t.served;
  Json.to_string reply

let serve_connection t fd =
  let obs = t.obs in
  let reader = make_reader fd in
  (* Once stopping, allow one extra poll interval of idleness before
     closing: a request written just before the stop call may still be
     in flight when the first timeout fires. *)
  let grace = ref false in
  let rec loop () =
    match read_line reader with
    | Eof -> ()
    | Timeout ->
        if Atomic.get t.stopping then begin
          if not !grace then begin
            grace := true;
            loop ()
          end
        end
        else loop ()
    | Line line ->
        let reply =
          if Obs.enabled obs then
            Obs.span obs ~cat:"server" "server.request" (fun () ->
                answer t (Some line))
          else answer t (Some line)
        in
        if write_line fd reply then loop ()
    | Too_long ->
        (* The rest of the over-long line is never read, so the
           connection cannot be resynchronised: answer and close. *)
        ignore (write_line fd (answer t None) : bool)
  in
  (match
     if Obs.enabled obs then
       Obs.span obs ~cat:"server" "server.connection" (fun () -> loop ())
     else loop ()
   with
  | () -> ()
  | exception _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Domains                                                             *)
(* ------------------------------------------------------------------ *)

let worker_loop t =
  let rec next () =
    let job =
      Mutex.protect t.lock (fun () ->
          let rec wait () =
            match Queue.take_opt t.queue with
            | Some fd ->
                t.busy <- t.busy + 1;
                Some fd
            | None ->
                if Atomic.get t.stopping then None
                else begin
                  Condition.wait t.nonempty t.lock;
                  wait ()
                end
          in
          wait ())
    in
    match job with
    | Some fd ->
        Fun.protect
          ~finally:(fun () ->
            Mutex.protect t.lock (fun () -> t.busy <- t.busy - 1))
          (fun () -> serve_connection t fd);
        next ()
    | None -> ()
  in
  next ()

(* How long a shed client should wait before retrying: roughly the
   time for the connections ahead of it to drain, assuming each holds
   its worker for about one warm request burst. *)
let retry_after_ms t ~in_system =
  max 25 (50 * in_system / max 1 t.options.workers)

(* Over capacity: answer with the typed [overloaded] error (carrying
   the retry hint) and close.  Best-effort — the reply is one short
   line, which fits a fresh socket's send buffer; a short send timeout
   keeps a dead peer from stalling the acceptor. *)
let shed_connection t fd ~in_system =
  Atomic.incr t.shed;
  if Obs.enabled t.obs then
    Obs.counter t.obs "server.queue"
      [
        ("shed", float_of_int (Atomic.get t.shed));
        ("depth", float_of_int (in_system - t.options.workers));
      ];
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO poll_interval
   with Unix.Unix_error _ -> ());
  (match
     write_line fd
       (Json.to_string
          (Protocol.overloaded_reply ~id:Json.Null
             ~retry_after_ms:(retry_after_ms t ~in_system)))
   with
  | (_ : bool) -> ()
  | exception Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let acceptor_loop t =
  let rec loop () =
    if not (Atomic.get t.stopping) then begin
      (match Unix.select [ t.listen_fd ] [] [] poll_interval with
      | [ _ ], _, _ -> (
          match Unix.accept ~cloexec:true t.listen_fd with
          | fd, _ ->
              (* Admission control: the connections in the system
                 (being served + waiting) may not exceed the worker
                 pool plus [max_pending] waiting slots.  Beyond that,
                 queueing would only grow latency without bound — shed
                 instead. *)
              let admitted, in_system =
                Mutex.protect t.lock (fun () ->
                    let in_system = t.busy + Queue.length t.queue in
                    if
                      in_system
                      >= t.options.workers + t.options.max_pending
                    then (false, in_system)
                    else begin
                      Queue.add fd t.queue;
                      Condition.signal t.nonempty;
                      (true, in_system + 1)
                    end)
              in
              if admitted then begin
                Atomic.incr t.accepted;
                if Obs.enabled t.obs then
                  Obs.counter t.obs "server.requests"
                    [
                      ("connections", float_of_int (Atomic.get t.accepted));
                      ( "queue_depth",
                        float_of_int (max 0 (in_system - t.options.workers))
                      );
                    ]
              end
              else shed_connection t fd ~in_system
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (* Wake every idle worker so the pool can drain and exit. *)
  Mutex.protect t.lock (fun () -> Condition.broadcast t.nonempty)

let min_space_overhead = 400

let start ?(options = default_options) () =
  if options.workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  if options.max_pending < 0 then
    invalid_arg "Server.start: max_pending must be >= 0";
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* GC floor.  Request lines (several kB each) and each cache miss's
     objective tape and workspace are too big for the minor heap, so
     they are allocated straight in the major heap, and OCaml 5.1's
     default [space_overhead] (120) cycles the major GC about four
     times as often as 400 does.  On planbench serve-drift (seed 95,
     5 s, 2-vCPU VM, 3 runs each) the server ran 96 major collections
     at 119 req/s (p90 25.8 ms) with the default, and 24 at 130 req/s
     (p90 22.1 ms) with the floor.  A larger operator setting
     (OCAMLRUNPARAM=o=...) is kept. *)
  let gc = Gc.get () in
  if gc.space_overhead < min_space_overhead then
    Gc.set { gc with space_overhead = min_space_overhead };
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  let t =
    try
      Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
      Unix.bind listen_fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string options.addr, options.port));
      Unix.listen listen_fd options.backlog;
      let bound_port =
        match Unix.getsockname listen_fd with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> assert false
      in
      let cache =
        match options.config.cache with
        | Some c -> c
        | None -> Core.Plan_cache.create ()
      in
      {
        options;
        listen_fd;
        bound_port;
        cache;
        obs = Obs.Sink.locking options.config.obs;
        stopping = Atomic.make false;
        served = Atomic.make 0;
        accepted = Atomic.make 0;
        shed = Atomic.make 0;
        queue = Queue.create ();
        lock = Mutex.create ();
        nonempty = Condition.create ();
        busy = 0;
        latency =
          Array.init (Array.length latency_ops) (fun _ ->
              Array.make (Array.length latency_bounds_ms + 1) 0);
        domains = [];
      }
    with exn ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      raise exn
  in
  let acceptor = Domain.spawn (fun () -> acceptor_loop t) in
  let workers =
    List.init options.workers (fun _ -> Domain.spawn (fun () -> worker_loop t))
  in
  t.domains <- acceptor :: workers;
  t

let port t = t.bound_port

let cache t = t.cache

let stats t = Core.Plan_cache.stats t.cache

let requests_served t = Atomic.get t.served

let connections_accepted t = Atomic.get t.accepted

let connections_shed t = Atomic.get t.shed

let queue_depth t = Mutex.protect t.lock (fun () -> Queue.length t.queue)

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    Mutex.protect t.lock (fun () -> Condition.broadcast t.nonempty);
    List.iter Domain.join t.domains;
    t.domains <- [];
    Obs.flush t.obs
  end
