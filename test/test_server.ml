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
let diamond ?(tau = 1.0) ?(label = "a") () =
  let b = Mdg.Graph.create_builder () in
  let node label alpha tau =
    Mdg.Graph.add_node b ~label ~kernel:(Synthetic { alpha; tau })
  in
  let a = node label 0.05 tau in
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

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

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
          (Json.int_field "n")));
  (* The deepest nest the parser accepts. *)
  let rec nest d = if d = 0 then Json.Null else Json.List [ nest (d - 1) ] in
  let deep = Json.to_string (nest Json.max_depth) in
  Alcotest.(check (result string string))
    "depth-64 nest round-trips" (Ok deep)
    (Result.map Json.to_string (Json.of_string deep));
  (* Number text, pinned at the edges of the two formats: integers
     within 2^53 print as "%.0f", everything else as "%.17g". *)
  List.iter
    (fun (x, text) ->
      Alcotest.(check string) (Printf.sprintf "number %h" x) text
        (Json.to_string (Json.Num x));
      match Json.of_string text with
      | Ok (Json.Num y) ->
          Alcotest.(check int64) (Printf.sprintf "number %h parses back" x)
            (Int64.bits_of_float x) (Int64.bits_of_float y)
      | _ -> Alcotest.failf "number text %S does not parse" text)
    [
      (0.0, "0");
      (-0.0, "-0");
      (Int64.float_of_bits 1L, "4.9406564584124654e-324");
      (-.Int64.float_of_bits 1L, "-4.9406564584124654e-324");
      (Int64.float_of_bits 0x000FFFFFFFFFFFFFL, "2.2250738585072009e-308");
      (Float.min_float, "2.2250738585072014e-308");
      (9007199254740991.0, "9007199254740991");
      (9007199254740992.0, "9007199254740992");
      (Float.succ 9007199254740992.0, "9007199254740994");
      (-9007199254740992.0, "-9007199254740992");
      (Float.pred (-9007199254740992.0), "-9007199254740994");
      (1e300, "1.0000000000000001e+300");
      (-1e300, "-1.0000000000000001e+300");
      (0.1, "0.10000000000000001");
      (123456789.5, "123456789.5");
      (Float.max_float, "1.7976931348623157e+308");
    ];
  (* Strings: escapes at the first and last byte, adjacent escapes,
     \u escapes, and malformed strings with their byte offsets. *)
  List.iter
    (fun (input, expected) ->
      Alcotest.(check (result string string))
        (Printf.sprintf "decode %S" input) expected
        (Result.map
           (function Json.Str s -> s | v -> Json.to_string v)
           (Json.of_string input)))
    [
      ({|"\nabc\t"|}, Ok "\nabc\t");
      ({|"\"\\\/\b\f\n\r\t"|}, Ok "\"\\/\b\012\n\r\t");
      ("\"A\xc3\xa9\xe2\x82\xac\\u0000\"", Ok "A\195\169\226\130\172\000");
      ({|"\u0041\u00e9\u20AC"|}, Ok "A\195\169\226\130\172");
      ({|"a\u000Ab"|}, Ok "a\nb");
      ({|{"k\"ey": "v\\"}|}, Ok {|{"k\"ey":"v\\"}|});
      ({|"abc|}, Error "JSON parse error at byte 4: unterminated string");
      ({|"ab\|}, Error "JSON parse error at byte 4: dangling escape");
      ({|"ab\"|}, Error "JSON parse error at byte 5: unterminated string");
      ({|"\u12"|}, Error "JSON parse error at byte 3: bad \\u escape");
      ({|"\uZZZZ"|}, Error "JSON parse error at byte 3: bad \\u escape");
      ({|"x\u00"|}, Error "JSON parse error at byte 4: bad \\u escape");
      ({|"\q"|}, Error "JSON parse error at byte 2: bad escape \\q");
      ({|["ok", "bad\x"]|}, Error "JSON parse error at byte 12: bad escape \\x");
      ("\"a\nb\"",
       Error "JSON parse error at byte 2: raw control character in string");
      ("\"\001\"",
       Error "JSON parse error at byte 1: raw control character in string");
    ];
  (* A whole MDG text, as a plan request carries it. *)
  let mdg =
    Mdg.Serialize.to_string
      (fst (Kernels.Strassen_mdg.graph ~n:128 ()))
  in
  Alcotest.(check (result string string))
    "MDG text round-trips" (Ok mdg)
    (Result.bind
       (Json.of_string (Json.to_string (Json.Str mdg)))
       Json.to_str)

(* Number text is exactly Printf's, for any finite double. *)
let prop_json_number_text =
  let finite =
    QCheck.Gen.(
      oneof
        [
          map Int64.float_of_bits ui64;
          map float_of_int (int_range (-(1 lsl 53)) (1 lsl 53));
        ])
  in
  QCheck.Test.make ~name:"json: number text == Printf %.17g / %.0f"
    ~count:(Generators.count 2000)
    (QCheck.make ~print:(Printf.sprintf "%h") finite)
    (fun x ->
      QCheck.assume (Float.is_finite x);
      let expected =
        if Float.is_integer x && Float.abs x <= 9.007199254740992e15 then
          Printf.sprintf "%.0f" x
        else Printf.sprintf "%.17g" x
      in
      Json.to_string (Json.Num x) = expected)

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
      (* Past the nesting cap: balanced, and a runaway open. *)
      String.make (Json.max_depth + 1) '[' ^ String.make (Json.max_depth + 1) ']';
      String.make 1_000_000 '[';
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
      let key p =
        let b = Buffer.create 128 in
        Costmodel.Params.add_key b p;
        Buffer.contents b
      in
      Alcotest.(check string)
        "params key survives the wire" (key params) (key sent)
  | Ok _ -> Alcotest.fail "decoded wrong request kind"

(* A plan request whose [t_ss] transfer constant is the JSON text
   [t_ss]. *)
let bad_params_line t_ss =
  Printf.sprintf
    {|{"op":"plan","mdg":%s,"procs":4,"params":{"transfer":{"t_ss":%s,"t_ps":0,"t_sr":0,"t_pr":0,"t_n":0}}}|}
    (Json.to_string (Json.Str (Mdg.Serialize.to_string (diamond ()))))
    t_ss

(* A two-node plan request whose first node has kernel [kernel]. *)
let bad_mdg_line kernel =
  Printf.sprintf {|{"op":"plan","mdg":%s,"procs":4}|}
    (Json.to_string
       (Json.Str
          (Printf.sprintf
             "mdg\nnode 0 %s \"a\"\nnode 1 synthetic:1.0:0.002 \"b\"\nedge 0 1 4096 1d"
             kernel)))

let bad_processing_line =
  Printf.sprintf
    {|{"op":"plan","mdg":%s,"procs":4,"params":{"transfer":{"t_ss":0,"t_ps":0,"t_sr":0,"t_pr":0,"t_n":0},"processing":[{"kernel":"mul:64","alpha":0.5,"tau":1e999}]}}|}
    (Json.to_string (Json.Str (Mdg.Serialize.to_string (diamond ()))))

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
  expect_error "{\"op\":\"plan\",\"mdg\":\"mdg\\nnode 0 mul:64 \\\"m\\\"\",\"procs\":\"four\"}";
  (* Transfer constants the cost model rejects. *)
  List.iter
    (fun t_ss -> expect_error (bad_params_line t_ss))
    [ "-1"; "1e999" ];
  (* Non-finite kernel constants in the MDG itself. *)
  List.iter
    (fun kernel -> expect_error (bad_mdg_line kernel))
    [ "synthetic:0.2:1e999"; "synthetic:0.2:nan"; "synthetic:nan:0.5" ];
  (* A processing entry the cost model rejects, named as such. *)
  match Protocol.decode_request bad_processing_line with
  | Error (_, msg) ->
      Alcotest.(check string) "processing tau 1e999"
        "Params.set_processing: tau negative or not finite" msg
  | Ok _ -> Alcotest.fail "accepted a processing tau of 1e999"

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
  get (Client.ping c);
  (* Hostile lines: transfer constants the cost model rejects, and a
     nest far past the depth cap.  Each gets a typed reply whose
     message names the problem, and the next request on the
     connection is answered. *)
  List.iter
    (fun (line, names) ->
      Client.send_line c line;
      (match Protocol.decode_reply (get (Client.recv_line c)) with
      | Ok (_, Protocol.Error_reply { kind; message; _ }) ->
          Alcotest.(check string) "kind" "protocol_error" kind;
          if not (contains message names) then
            Alcotest.failf "message %S does not name %S" message names
      | Ok _ -> Alcotest.fail "expected an error reply"
      | Error msg -> Alcotest.failf "unparseable reply: %s" msg);
      get (Client.ping c))
    [
      (bad_params_line "-1", "t_ss");
      (bad_params_line "1e999", "t_ss");
      (String.make 1_000_000 '[', string_of_int Json.max_depth);
    ]

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

(* A client that never sends '\n' may not grow the server's line
   buffer without bound: one byte past the cap draws a typed
   [request_too_large] reply, then the server closes the connection,
   and other connections are unaffected. *)
let test_server_line_cap () =
  with_server @@ fun srv ->
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Srv.port srv));
  let data = Bytes.make (Srv.max_line_bytes + 1) 'x' in
  let rec send off =
    if off < Bytes.length data then
      send (off + Unix.write fd data off (Bytes.length data - off))
  in
  send 0;
  let ic = Unix.in_channel_of_descr fd in
  (match Protocol.decode_reply (input_line ic) with
  | Ok (_, Protocol.Error_reply { kind; _ }) ->
      Alcotest.(check string) "typed error" "request_too_large" kind
  | Ok _ -> Alcotest.fail "expected an error reply"
  | Error msg -> Alcotest.failf "unparseable reply: %s" msg);
  (match input_line ic with
  | line -> Alcotest.failf "connection still open, got %S" line
  | exception End_of_file -> ());
  with_client srv @@ fun c -> get (Client.ping c)

let test_server_gc_floor () =
  with_server @@ fun _ ->
  Alcotest.(check bool) "space_overhead raised to the floor" true
    ((Gc.get ()).space_overhead >= 400)

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
  Alcotest.(check bool) "first request solves" false first.solve_skipped;
  let second = get (Client.plan c g ~procs:16) in
  Alcotest.(check bool) "second request skips the solve" true
    second.solve_skipped;
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
  (* Same shape, perturbed constants: a new key misses and is
     solved cold, exactly as the uncached pipeline plans it. *)
  let params = Costmodel.Params.cm5 () in
  let tf = Costmodel.Params.transfer params in
  let perturbed =
    Costmodel.Params.make ~transfer:{ tf with t_ss = tf.t_ss *. 1.05 }
  in
  let third = get (Client.plan ~params:perturbed c g ~procs:16) in
  Alcotest.(check bool) "perturbed constants: solves" false
    third.solve_skipped;
  Alcotest.(check string) "perturbed constants: miss" "miss" third.warm_cache;
  let cold = Core.Pipeline.plan_exn perturbed g ~procs:16 in
  let bits = Array.map Int64.bits_of_float in
  Alcotest.(check int64) "perturbed constants: Phi bits of the cold plan"
    (Int64.bits_of_float (Core.Pipeline.phi cold))
    (Int64.bits_of_float third.phi);
  Alcotest.(check (array int64))
    "perturbed constants: allocation bits of the cold plan"
    (bits cold.allocation.alloc) (bits third.alloc);
  Alcotest.(check (array int)) "perturbed constants: rounded allocation"
    cold.psa.rounded_alloc third.rounded_alloc

(* The crafted pair of Generators.colliding_pair over the wire: the
   second graph shares the first's structural hash, yet it must be a
   miss, solved cold, not the first graph's plan. *)
let test_server_colliding_hashes () =
  with_server @@ fun srv ->
  with_client srv @@ fun c ->
  let a, b = Generators.colliding_pair () in
  ignore (get (Client.plan c a ~procs:16) : Protocol.plan_summary);
  let served = get (Client.plan c b ~procs:16) in
  Alcotest.(check string) "second graph: miss" "miss" served.warm_cache;
  let cold = Core.Pipeline.plan_exn (Costmodel.Params.cm5 ()) b ~procs:16 in
  Alcotest.(check int64) "second graph: Phi bits of its cold plan"
    (Int64.bits_of_float (Core.Pipeline.phi cold))
    (Int64.bits_of_float served.phi)

(* Concurrent identical misses coalesce over the wire: four clients,
   one per worker, send the same uncached request, the leader first
   and the other three once its solve is in flight.  The cache admits
   one leader per key, and a follower that arrives after the leader
   published is served from the stored entry, so every assertion but
   the last holds whatever the timing.  The solve takes about 0.1 s
   (519 nodes at p = 64), so a follower joins the flight. *)
let test_server_coalesce_over_wire () =
  let options = { Srv.default_options with workers = 4 } in
  with_server ~options @@ fun srv ->
  let clients = List.init 4 (fun _ -> Client.connect ~port:(Srv.port srv) ()) in
  Fun.protect ~finally:(fun () -> List.iter Client.close clients) @@ fun () ->
  (* A ping pins each connection to its own worker. *)
  List.iter (fun c -> get (Client.ping c)) clients;
  let g =
    Workgen.generate
      (Workgen.spec_of_string_exn "depth=5,branch=3,cutoff=0.2")
      ~seed:1994
  in
  let line =
    Json.to_string (Protocol.encode_plan_request ~id:(Json.int 1) g ~procs:64)
  in
  let leader = List.hd clients and followers = List.tl clients in
  Client.send_line leader line;
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    (Srv.stats srv).coalesce_leaders < 1 && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.001
  done;
  List.iter (fun c -> Client.send_line c line) followers;
  let replies =
    List.map
      (fun c ->
        match Protocol.decode_reply (get (Client.recv_line c)) with
        | Ok (_, Protocol.Plan_reply s) -> s
        | Ok _ -> Alcotest.fail "expected a plan reply"
        | Error msg -> Alcotest.failf "unparseable reply: %s" msg)
      clients
  in
  let stats = Srv.stats srv in
  Alcotest.(check int) "exactly one solve" 1 stats.coalesce_leaders;
  let skipped (s : Protocol.plan_summary) = s.solve_skipped in
  Alcotest.(check int) "three replies skip the solve" 3
    (List.length (List.filter skipped replies));
  let bits (s : Protocol.plan_summary) =
    (Int64.bits_of_float s.phi, Array.map Int64.bits_of_float s.alloc)
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) "Phi and allocation bits of the leader's plan" true
        (bits s = bits (List.hd replies)))
    replies;
  Alcotest.(check bool) "a follower joined the flight" true
    (stats.coalesce_hits >= 1)

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

(* A decoded string is one block of its decoded size: no buffer that
   is then copied.  The slack covers the parser's closures and the
   result's constructors; a second copy would double the total. *)
let test_json_string_one_block () =
  let b = Buffer.create 70_000 in
  Buffer.add_char b '"';
  let decoded = ref 0 in
  while !decoded < 64 * 1024 do
    Buffer.add_string b "mdg\\nnode \\\"\\u00e9\\u20ac\\/";
    decoded := !decoded + 16
  done;
  Buffer.add_char b '"';
  let line = Buffer.contents b in
  let before = Gc.allocated_bytes () in
  let v = Json.of_string line in
  let allocated = Gc.allocated_bytes () -. before in
  (match v with
  | Ok (Json.Str s) ->
      Alcotest.(check int) "decoded length" !decoded (String.length s)
  | _ -> Alcotest.fail "expected a string");
  if allocated > float_of_int (!decoded + 2048) then
    Alcotest.failf "decoding %d bytes allocated %.0f bytes" !decoded allocated

let plan_line ?pb ~id g =
  Json.to_string
    (Protocol.encode_plan_request ~id:(Json.int id) ?pb g ~procs:16)

let cache_outcome (s : Protocol.plan_summary) : Core.Pipeline.cache_outcome =
  {
    warm =
      (match s.warm_cache with
      | "hit" -> Hit
      | "miss" -> Miss
      | other -> Alcotest.failf "unexpected warm %S" other);
    solve_skipped = s.solve_skipped;
    coalesced = s.coalesced;
  }

(* Every plan reply over the wire, hit or miss, default options or an
   explicit PB, is byte for byte the reply of the uncached in-process
   plan with the reply's own cache fields. *)
let test_server_replies_are_uncached_replies () =
  with_server @@ fun srv ->
  with_client srv @@ fun c ->
  let g1 = diamond () and g2 = diamond ~tau:2.0 () in
  (* A line longer than the daemon's 64 KiB read buffer. *)
  let long = diamond ~label:(String.make 100_000 'x') () in
  let steps =
    [
      (long, None, "miss");
      (long, None, "hit");
      (g1, None, "miss");
      (g1, None, "hit");
      (g1, Some 4, "hit");
      (g2, Some 4, "miss");
      (g1, Some 4, "hit");
      (g2, None, "hit");
      (g2, Some 4, "hit");
      (g1, None, "hit");
    ]
  in
  List.iteri
    (fun id (g, pb, warm) ->
      Client.send_line c (plan_line ?pb ~id g);
      let reply = get (Client.recv_line c) in
      let summary =
        match Protocol.decode_reply reply with
        | Ok (_, Protocol.Plan_reply s) -> s
        | _ -> Alcotest.failf "request %d: not a plan reply: %s" id reply
      in
      Alcotest.(check string) (Printf.sprintf "request %d: warm" id) warm
        summary.warm_cache;
      let config =
        match pb with
        | None -> Core.Pipeline.default_config
        | Some pb ->
            Core.Pipeline.with_psa_options
              { Core.Psa.default_options with pb = Core.Psa.Fixed pb }
              Core.Pipeline.default_config
      in
      let cold =
        match
          Core.Pipeline.plan ~config
            (Core.Pipeline.request (Costmodel.Params.cm5 ()) g ~procs:16)
        with
        | Ok p -> p
        | Error e -> Alcotest.fail (Core.Pipeline.error_to_string e)
      in
      Alcotest.(check string)
        (Printf.sprintf "request %d: reply bytes" id)
        (Json.to_string
           (Protocol.plan_reply ~id:(Json.int id)
              { cold with cache = cache_outcome summary }))
        reply)
    steps;
  (* A PB the PSA rejects is still a hit on the stored allocation, and
     still answers invalid_request. *)
  Client.send_line c (plan_line ~pb:3 ~id:99 g1);
  match Protocol.decode_reply (get (Client.recv_line c)) with
  | Ok (_, Protocol.Error_reply { kind; _ }) ->
      Alcotest.(check string) "pb=3" "invalid_request" kind
  | _ -> Alcotest.fail "pb=3: expected an error reply"

(* An exact hit over the wire runs no PSA: no schedule span, and one
   cache counter recording the hit. *)
let test_server_exact_hit_skips_psa () =
  let recorder = Obs.Recorder.create () in
  let options =
    {
      Srv.default_options with
      config =
        Core.Pipeline.with_obs
          (Obs.Recorder.sink recorder)
          Core.Pipeline.default_config;
    }
  in
  with_server ~options @@ fun srv ->
  with_client srv @@ fun c ->
  let g = diamond () in
  let ask id =
    Client.send_line c (plan_line ~id g);
    ignore (get (Client.recv_line c) : string)
  in
  ask 1;
  let named name =
    List.filter
      (fun e -> Obs.Events.name e = name)
      (Obs.Recorder.events recorder)
  in
  Alcotest.(check bool) "the miss schedules" true
    (named "pipeline.schedule" <> []);
  Obs.Recorder.clear recorder;
  ask 2;
  Alcotest.(check int) "no schedule span on the hit" 0
    (List.length (named "pipeline.schedule"));
  match named "pipeline.cache" with
  | [ Obs.Events.Counter { series; _ } ] ->
      Alcotest.(check (float 0.0)) "warm_hit" 1.0 (List.assoc "warm_hit" series)
  | events ->
      Alcotest.failf "%d pipeline.cache events on the hit, expected one"
        (List.length events)

let suite =
  [
    Alcotest.test_case "json: round-trip" `Quick test_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_number_text;
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
    Alcotest.test_case "server: over-long line gets typed reply, then close"
      `Quick test_server_line_cap;
    Alcotest.test_case "server: start raises the GC floor" `Quick
      test_server_gc_floor;
    Alcotest.test_case "server: typed pipeline errors" `Quick
      test_server_typed_errors;
    Alcotest.test_case "server: caches visible over the wire" `Quick
      test_server_cache_over_wire;
    Alcotest.test_case "server: colliding structural hashes, own plans"
      `Quick test_server_colliding_hashes;
    Alcotest.test_case "server: concurrent identical misses coalesce" `Quick
      test_server_coalesce_over_wire;
    Alcotest.test_case "server: concurrent clients" `Quick
      test_server_concurrent_clients;
    Alcotest.test_case "server: over capacity sheds typed" `Quick
      test_server_shed_typed;
    Alcotest.test_case "server: overload stress, no hangs" `Quick
      test_server_overload_stress;
    Alcotest.test_case "server: graceful shutdown drains" `Quick
      test_server_graceful_shutdown;
    Alcotest.test_case "json: a decoded string is one block" `Quick
      test_json_string_one_block;
    Alcotest.test_case "server: every reply is the uncached plan's reply"
      `Quick test_server_replies_are_uncached_replies;
    Alcotest.test_case "server: an exact hit runs no PSA" `Quick
      test_server_exact_hit_skips_psa;
  ]
