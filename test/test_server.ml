(* The plan server: JSON codec, wire protocol, end-to-end serving,
   cache behaviour over the wire, concurrency and graceful
   shutdown. *)

module Json = Server.Json
module Protocol = Server.Protocol
module Srv = Server.Daemon
module Client = Server.Client

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

(* A small diamond MDG of synthetic kernels: no calibration table
   needed, so it plans under any parameter set. *)
let diamond ?(tau = 1.0) () =
  let b = Mdg.Graph.create_builder () in
  let node label alpha tau =
    Mdg.Graph.add_node b ~label ~kernel:(Synthetic { alpha; tau })
  in
  let a = node "a" 0.05 tau in
  let l = node "left" 0.02 (2.0 *. tau) in
  let r = node "right" 0.10 (1.5 *. tau) in
  let j = node "join" 0.05 tau in
  Mdg.Graph.add_edge b ~src:a ~dst:l ~bytes:65536.0 ~kind:Mdg.Graph.Oned;
  Mdg.Graph.add_edge b ~src:a ~dst:r ~bytes:65536.0 ~kind:Mdg.Graph.Twod;
  Mdg.Graph.add_edge b ~src:l ~dst:j ~bytes:32768.0 ~kind:Mdg.Graph.Oned;
  Mdg.Graph.add_edge b ~src:r ~dst:j ~bytes:32768.0 ~kind:Mdg.Graph.Oned;
  Mdg.Graph.build b

let with_server ?options f =
  let srv = Srv.start ?options () in
  Fun.protect ~finally:(fun () -> Srv.stop srv) (fun () -> f srv)

let with_client srv f =
  let c = Client.connect ~port:(Srv.port srv) () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let get = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool true;
      Json.Num 3.25;
      Json.Num (-17.0);
      Json.Num 1.0e-9;
      Json.Str "plain";
      Json.Str "esc \"quotes\" \\ and \n tab \t done";
      Json.List [ Json.Num 1.0; Json.Str "two"; Json.Null ];
      Json.Obj
        [
          ("a", Json.Num 1.0);
          ("nested", Json.Obj [ ("xs", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' ->
          Alcotest.(check string)
            "print/parse/print fixpoint" (Json.to_string v) (Json.to_string v')
      | Error msg -> Alcotest.failf "round-trip failed: %s" msg)
    samples;
  (* Integers survive exactly. *)
  Alcotest.(check string) "int rendering" "{\"n\":12345678901}"
    (Json.to_string (Json.Obj [ ("n", Json.int 12345678901) ]));
  Alcotest.(check int) "int round-trip" 12345678901
    (get
       (Result.bind
          (Json.of_string "{\"n\":12345678901}")
          (Json.int_field "n")))

let test_json_malformed () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed JSON %S" s
      | Error _ -> ())
    [
      "";
      "{";
      "[1,]";
      "{\"a\":}";
      "{\"a\" 1}";
      "nul";
      "\"unterminated";
      "1 2";
      "{\"a\":1}garbage";
      "'single'";
    ]

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_protocol_roundtrip () =
  let g = diamond () in
  let params = Costmodel.Params.cm5 () in
  let line =
    Json.to_string
      (Protocol.encode_plan_request ~id:(Json.int 7) ~params ~pb:8 g ~procs:32)
  in
  match Protocol.decode_request line with
  | Error (_, msg) -> Alcotest.failf "decode failed: %s" msg
  | Ok (id, Protocol.Plan req) ->
      Alcotest.(check string) "id echo" "7" (Json.to_string id);
      Alcotest.(check int) "procs" 32 req.procs;
      Alcotest.(check (option int)) "pb" (Some 8) req.pb;
      Alcotest.(check string)
        "graph round-trip"
        (Mdg.Serialize.to_string g)
        (Mdg.Serialize.to_string req.graph);
      let sent = Option.get req.params in
      Alcotest.(check int64)
        "params fingerprint survives the wire"
        (Costmodel.Params.fingerprint params)
        (Costmodel.Params.fingerprint sent)
  | Ok _ -> Alcotest.fail "decoded wrong request kind"

let test_protocol_bad_requests () =
  let expect_error line =
    match Protocol.decode_request line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted bad request %S" line
  in
  expect_error "not json at all";
  expect_error "{\"op\":\"plan\"}";
  (* missing mdg/procs *)
  expect_error "{\"op\":\"plan\",\"mdg\":\"bogus\",\"procs\":4}";
  expect_error "{\"op\":\"explode\"}";
  expect_error "{\"op\":\"plan\",\"mdg\":\"mdg\\nnode 0 mul:64 \\\"m\\\"\",\"procs\":\"four\"}"

(* ------------------------------------------------------------------ *)
(* End-to-end serving                                                  *)
(* ------------------------------------------------------------------ *)

let test_server_plan () =
  with_server @@ fun srv ->
  with_client srv @@ fun c ->
  get (Client.ping c);
  let g = diamond () in
  let summary = get (Client.plan c g ~procs:16) in
  (* The server must agree with planning the same request locally. *)
  let local =
    Core.Pipeline.plan_exn (Costmodel.Params.cm5 ()) g ~procs:16
  in
  Alcotest.(check (float 1e-9)) "phi" (Core.Pipeline.phi local) summary.phi;
  Alcotest.(check (float 1e-9))
    "t_psa" (Core.Pipeline.predicted_time local) summary.t_psa;
  Alcotest.(check int) "nodes" 4 summary.nodes;
  Alcotest.(check int) "alloc length" 4 (Array.length summary.alloc);
  Alcotest.(check bool) "makespan = t_psa" true
    (Float.abs (summary.makespan -. summary.t_psa) <= 1e-9);
  (match Core.Schedule.validate (Costmodel.Params.cm5 ()) local.graph
           (Core.Pipeline.schedule local)
   with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "local schedule invalid: %s" (String.concat "; " msgs))

let test_server_malformed_line () =
  with_server @@ fun srv ->
  with_client srv @@ fun c ->
  (* A garbage line gets a typed protocol error, and the connection
     remains usable for the next request. *)
  Client.send_line c "this is not json";
  (match Protocol.decode_reply (get (Client.recv_line c)) with
  | Ok (_, Protocol.Error_reply { kind; _ }) ->
      Alcotest.(check string) "kind" "protocol_error" kind
  | Ok _ -> Alcotest.fail "expected an error reply"
  | Error msg -> Alcotest.failf "unparseable reply: %s" msg);
  get (Client.ping c)

(* Pipelined requests: one write carrying 4,000 ping lines lands in the
   server's 64 KiB reads several thousand lines at a time, and every
   line must be answered, in order. *)
let test_server_pipelined_pings () =
  with_server @@ fun srv ->
  with_client srv @@ fun c ->
  let n = 4000 in
  let batch =
    String.concat "\n"
      (List.init n (fun i -> Printf.sprintf "{\"op\":\"ping\",\"id\":%d}" i))
  in
  (* Written from a second domain: the replies can fill the socket
     buffers before the write returns. *)
  let writer = Domain.spawn (fun () -> Client.send_line c batch) in
  for i = 0 to n - 1 do
    match Protocol.decode_reply (get (Client.recv_line c)) with
    | Ok (id, Protocol.Pong) ->
        Alcotest.(check string)
          "pongs in request order" (Json.to_string (Json.int i))
          (Json.to_string id)
    | Ok _ -> Alcotest.failf "line %d: expected a pong" i
    | Error msg -> Alcotest.failf "line %d: unparseable reply: %s" i msg
  done;
  Domain.join writer

let test_server_typed_errors () =
  with_server @@ fun srv ->
  with_client srv @@ fun c ->
  let g = diamond () in
  (match Client.plan c g ~procs:0 with
  | Error msg ->
      Alcotest.(check bool) "invalid_procs surfaced" true
        (String.length msg >= 13 && String.sub msg 0 13 = "invalid_procs")
  | Ok _ -> Alcotest.fail "procs=0 must fail");
  (* A kernel with no calibration in the server's default table. *)
  let b = Mdg.Graph.create_builder () in
  ignore (Mdg.Graph.add_node b ~label:"m" ~kernel:(Mdg.Graph.Matrix_init 512));
  let g_uncal = Mdg.Graph.build b in
  (match Client.plan c g_uncal ~procs:4 with
  | Error msg ->
      Alcotest.(check bool) "missing_calibration surfaced" true
        (String.length msg >= 19 && String.sub msg 0 19 = "missing_calibration")
  | Ok _ -> Alcotest.fail "uncalibrated kernel must fail");
  (* A non-power-of-two PB is an invalid_request from the PSA. *)
  (match Client.plan ~pb:3 c g ~procs:8 with
  | Error msg ->
      Alcotest.(check bool) "invalid_request surfaced" true
        (String.length msg >= 15 && String.sub msg 0 15 = "invalid_request")
  | Ok _ -> Alcotest.fail "pb=3 must fail");
  (* The connection survived all three failures. *)
  get (Client.ping c)

let test_server_cache_over_wire () =
  with_server @@ fun srv ->
  with_client srv @@ fun c ->
  let g = diamond () in
  let first = get (Client.plan c g ~procs:16) in
  Alcotest.(check string) "first request misses tape" "miss" first.tape_cache;
  let second = get (Client.plan c g ~procs:16) in
  Alcotest.(check string) "second request hits tape" "hit" second.tape_cache;
  Alcotest.(check string) "second request hits warm" "hit" second.warm_cache;
  Alcotest.(check bool) "phi unchanged" true
    (Float.abs (second.phi -. first.phi)
    <= 1e-6 *. (1.0 +. Float.abs first.phi));
  let stats, server = get (Client.stats c) in
  Alcotest.(check bool) "stats counted the hit" true (stats.tape_hits >= 1);
  (match server with
  | None -> Alcotest.fail "stats reply carries no server section"
  | Some (srv : Protocol.server_stats) ->
      (* The stats line itself is counted only after its reply is
         built, so the snapshot covers the two completed plans. *)
      Alcotest.(check bool) "server served the requests" true (srv.served >= 2);
      Alcotest.(check int) "nothing shed" 0 srv.shed;
      let total = Array.fold_left ( + ) 0 in
      Alcotest.(check bool) "plan latencies bucketed" true
        (List.exists
           (fun (l : Protocol.op_latency) -> l.op = "plan" && total l.buckets >= 2)
           srv.latency));
  (* Same shape, perturbed constants: tape misses (new fingerprint)
     but the warm cache serves the shape seed. *)
  let params = Costmodel.Params.cm5 () in
  let tf = Costmodel.Params.transfer params in
  let perturbed =
    Costmodel.Params.make ~transfer:{ tf with t_n = tf.t_n *. 1.05 }
  in
  let third = get (Client.plan ~params:perturbed c g ~procs:16) in
  Alcotest.(check string) "perturbed constants: new tape" "miss" third.tape_cache;
  Alcotest.(check string) "perturbed constants: shape warm hit" "shape_hit"
    third.warm_cache

let test_server_concurrent_clients () =
  let domains = 4 and per_client = 6 in
  with_server @@ fun srv ->
  let port = Srv.port srv in
  let worker k =
    Domain.spawn (fun () ->
        let c = Client.connect ~port () in
        Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
            List.init per_client (fun i ->
                let tau = 0.5 +. (0.25 *. float_of_int ((k + i) mod 3)) in
                let g = diamond ~tau () in
                let procs = 4 lsl (i mod 3) in
                match Client.plan c g ~procs with
                | Ok s -> Float.is_finite s.phi && s.phi > 0.0
                | Error msg -> Alcotest.failf "client %d: %s" k msg)))
  in
  let results =
    List.init domains worker |> List.map Domain.join |> List.concat
  in
  Alcotest.(check int) "every request answered"
    (domains * per_client) (List.length results);
  Alcotest.(check bool) "every plan sane" true
    (List.for_all Fun.id results);
  Alcotest.(check int) "server counted them (plus pings)"
    (domains * per_client)
    (Srv.requests_served srv)

(* Deterministic shed: one worker, zero pending slots.  A ping pins
   the only worker to the first connection (workers hold a connection
   until it closes), so the second connection arrives with
   [workers + max_pending = 1] connections already in the system and
   must be shed with the typed overloaded reply, then closed. *)
let test_server_shed_typed () =
  let options = { Srv.default_options with workers = 1; max_pending = 0 } in
  with_server ~options @@ fun srv ->
  with_client srv @@ fun c1 ->
  get (Client.ping c1);
  let c2 = Client.connect ~port:(Srv.port srv) () in
  (match Protocol.decode_reply (get (Client.recv_line c2)) with
  | Ok (_, Protocol.Error_reply { kind; retry_after_ms; _ }) ->
      Alcotest.(check string) "typed overloaded error"
        Protocol.overloaded_kind kind;
      (match retry_after_ms with
      | Some ms -> Alcotest.(check bool) "retry hint positive" true (ms > 0)
      | None -> Alcotest.fail "shed reply carries no retry_after_ms")
  | Ok _ -> Alcotest.fail "expected an overloaded error reply"
  | Error msg -> Alcotest.failf "unparseable shed reply: %s" msg);
  (* The server closes a shed connection right after the reply. *)
  (match Client.recv_line c2 with
  | Error _ -> ()
  | Ok line -> Alcotest.failf "shed connection still open, got %S" line);
  Client.close c2;
  Alcotest.(check int) "shed counted" 1 (Srv.connections_shed srv);
  let _, server = get (Client.stats c1) in
  (match server with
  | Some (s : Protocol.server_stats) ->
      Alcotest.(check int) "shed visible in stats op" 1 s.shed;
      Alcotest.(check int) "max_pending echoed" 0 s.max_pending
  | None -> Alcotest.fail "stats reply carries no server section");
  (* Capacity freed: once c1 closes, a retry is admitted and served. *)
  Client.close c1;
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec retry () =
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "retry after shed never admitted"
    else
      let c3 = Client.connect ~port:(Srv.port srv) () in
      match Client.ping c3 with
      | Ok () -> Client.close c3
      | Error _ ->
          Client.close c3;
          Unix.sleepf 0.02;
          retry ()
  in
  retry ()

(* Overload stress: more client domains than the server has capacity
   for, every client retrying shed connections.  Every request must
   eventually complete, every shed must be the typed overloaded reply
   (anything else is a failure), and nothing may hang. *)
let test_server_overload_stress () =
  let options = { Srv.default_options with workers = 2; max_pending = 1 } in
  with_server ~options @@ fun srv ->
  let port = Srv.port srv in
  let clients = 8 and per_client = 5 in
  let sheds = Atomic.make 0 in
  let worker k =
    Domain.spawn (fun () ->
        let completed = ref 0 in
        let attempts = ref 0 in
        while !completed < per_client do
          incr attempts;
          if !attempts > 500 then
            Alcotest.failf "client %d: gave up after %d attempts" k !attempts;
          let c = Client.connect ~port () in
          let tau = 0.5 +. (0.25 *. float_of_int ((k + !completed) mod 3)) in
          let g = diamond ~tau () in
          (match Client.plan c g ~procs:8 with
          | Ok s ->
              if not (Float.is_finite s.phi && s.phi > 0.0) then
                Alcotest.failf "client %d: insane plan" k;
              incr completed
          | Error msg ->
              if
                String.length msg >= 10
                && String.sub msg 0 10 = Protocol.overloaded_kind
              then begin
                Atomic.incr sheds;
                Unix.sleepf 0.005
              end
              else Alcotest.failf "client %d: unexpected error %s" k msg
          | exception Unix.Unix_error _ ->
              (* The send raced the server's post-shed close: the shed
                 was already counted server-side; just retry. *)
              Unix.sleepf 0.005);
          Client.close c
        done;
        !completed)
  in
  let totals = List.init clients worker |> List.map Domain.join in
  Alcotest.(check (list int)) "every client completed its quota"
    (List.init clients (fun _ -> per_client))
    totals;
  (* With 8 clients against 2 workers + 1 slot, admission control must
     actually have fired. *)
  Alcotest.(check bool) "server shed under pressure" true
    (Srv.connections_shed srv > 0)

let test_server_graceful_shutdown () =
  let srv = Srv.start () in
  let c = Client.connect ~port:(Srv.port srv) () in
  let g = diamond () in
  (* The ping pins the connection to a worker; the plan request is
     then on the wire before stop, and the drain must answer it even
     though stop begins immediately. *)
  get (Client.ping c);
  Client.send_line c
    (Json.to_string (Protocol.encode_plan_request ~id:(Json.int 1) g ~procs:8));
  Srv.stop srv;
  (match Protocol.decode_reply (get (Client.recv_line c)) with
  | Ok (_, Protocol.Plan_reply s) ->
      Alcotest.(check bool) "drained plan sane" true (s.phi > 0.0)
  | Ok _ -> Alcotest.fail "expected a plan reply from the drain"
  | Error msg -> Alcotest.failf "bad drained reply: %s" msg);
  Client.close c;
  (* After stop the listener is gone. *)
  (match Client.connect ~port:(Srv.port srv) () with
  | c2 ->
      (* A TIME_WAIT race can let one more connect through; it must
         not be answered. *)
      (match Client.ping c2 with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "server answered after stop");
      Client.close c2
  | exception Unix.Unix_error _ -> ());
  (* stop is idempotent *)
  Srv.stop srv

let suite =
  [
    Alcotest.test_case "json: round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: malformed inputs rejected" `Quick
      test_json_malformed;
    Alcotest.test_case "protocol: plan request round-trip" `Quick
      test_protocol_roundtrip;
    Alcotest.test_case "protocol: bad requests rejected" `Quick
      test_protocol_bad_requests;
    Alcotest.test_case "server: plan matches local pipeline" `Quick
      test_server_plan;
    Alcotest.test_case "server: malformed line gets typed reply" `Quick
      test_server_malformed_line;
    Alcotest.test_case "server: 4,000 pipelined pings answered in order"
      `Quick test_server_pipelined_pings;
    Alcotest.test_case "server: typed pipeline errors" `Quick
      test_server_typed_errors;
    Alcotest.test_case "server: caches visible over the wire" `Quick
      test_server_cache_over_wire;
    Alcotest.test_case "server: concurrent clients" `Quick
      test_server_concurrent_clients;
    Alcotest.test_case "server: over capacity sheds typed" `Quick
      test_server_shed_typed;
    Alcotest.test_case "server: overload stress, no hangs" `Quick
      test_server_overload_stress;
    Alcotest.test_case "server: graceful shutdown drains" `Quick
      test_server_graceful_shutdown;
  ]
