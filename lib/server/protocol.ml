let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Cost parameters                                                     *)
(* ------------------------------------------------------------------ *)

let params_to_json params =
  let tf = Costmodel.Params.transfer params in
  let processing =
    List.map
      (fun kernel ->
        let p = Costmodel.Params.processing params kernel in
        Json.Obj
          [
            ("kernel", Json.Str (Mdg.Serialize.kernel_to_string kernel));
            ("alpha", Json.Num p.alpha);
            ("tau", Json.Num p.tau);
          ])
      (Costmodel.Params.known_kernels params)
  in
  Json.Obj
    [
      ( "transfer",
        Json.Obj
          [
            ("t_ss", Json.Num tf.t_ss);
            ("t_ps", Json.Num tf.t_ps);
            ("t_sr", Json.Num tf.t_sr);
            ("t_pr", Json.Num tf.t_pr);
            ("t_n", Json.Num tf.t_n);
          ] );
      ("processing", Json.List processing);
    ]

let params_of_json j =
  let* tf = Json.field "transfer" j in
  let* t_ss = Json.num_field "t_ss" tf in
  let* t_ps = Json.num_field "t_ps" tf in
  let* t_sr = Json.num_field "t_sr" tf in
  let* t_pr = Json.num_field "t_pr" tf in
  let* t_n = Json.num_field "t_n" tf in
  let params =
    Costmodel.Params.make ~transfer:{ t_ss; t_ps; t_sr; t_pr; t_n }
  in
  let entries =
    match Json.member "processing" j with
    | None | Some Json.Null -> Ok []
    | Some p -> Json.to_list p
  in
  let* entries = entries in
  let rec register = function
    | [] -> Ok params
    | entry :: rest ->
        let* kernel_str = Json.str_field "kernel" entry in
        let* kernel = Mdg.Serialize.kernel_of_string kernel_str in
        let* alpha = Json.num_field "alpha" entry in
        let* tau = Json.num_field "tau" entry in
        (match Costmodel.Params.set_processing params kernel { alpha; tau } with
        | () -> register rest
        | exception Invalid_argument msg -> Error msg)
  in
  register entries

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type plan_request = {
  graph : Mdg.Graph.t;
  procs : int;
  params : Costmodel.Params.t option;
  pb : int option;
}

type request = Plan of plan_request | Stats | Ping

let request_id j = Option.value (Json.member "id" j) ~default:Json.Null

let decode_plan id j =
  let res =
    let* mdg = Json.str_field "mdg" j in
    let* graph =
      match Mdg.Serialize.of_string mdg with
      | g -> Ok g
      | exception Mdg.Serialize.Parse_error { line; message } ->
          Error (Printf.sprintf "mdg line %d: %s" line message)
      | exception Invalid_argument msg ->
          Error (Printf.sprintf "invalid mdg: %s" msg)
    in
    let* procs = Json.int_field "procs" j in
    let* params =
      match Json.member "params" j with
      | None | Some Json.Null -> Ok None
      | Some p -> Result.map Option.some (params_of_json p)
    in
    let* pb =
      match Json.member "options" j with
      | None | Some Json.Null -> Ok None
      | Some opts -> (
          match Json.member "pb" opts with
          | None | Some Json.Null -> Ok None
          | Some pb -> Result.map Option.some (Json.to_int pb))
    in
    Ok (Plan { graph; procs; params; pb })
  in
  match res with
  | Ok req -> Ok (id, req)
  | Error msg -> Error (id, msg)

let decode_request line =
  match Json.of_string line with
  | Error msg -> Error (Json.Null, msg)
  | Ok j -> (
      let id = request_id j in
      match Json.member "op" j with
      | None | Some (Json.Str "plan") -> decode_plan id j
      | Some (Json.Str "stats") -> Ok (id, Stats)
      | Some (Json.Str "ping") -> Ok (id, Ping)
      | Some (Json.Str op) ->
          Error (id, Printf.sprintf "unknown op %S (plan|stats|ping)" op)
      | Some _ -> Error (id, "field \"op\" must be a string"))

let with_id id fields =
  match id with Json.Null -> fields | id -> ("id", id) :: fields

let encode_plan_request ?(id = Json.Null) ?params ?pb graph ~procs =
  Json.Obj
    (with_id id
       ([
          ("op", Json.Str "plan");
          ("mdg", Json.Str (Mdg.Serialize.to_string graph));
          ("procs", Json.int procs);
        ]
       @ (match params with
         | None -> []
         | Some p -> [ ("params", params_to_json p) ])
       @
       match pb with
       | None -> []
       | Some pb -> [ ("options", Json.Obj [ ("pb", Json.int pb) ]) ]))

let encode_stats_request ?(id = Json.Null) () =
  Json.Obj (with_id id [ ("op", Json.Str "stats") ])

let encode_ping_request ?(id = Json.Null) () =
  Json.Obj (with_id id [ ("op", Json.Str "ping") ])

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)
(* ------------------------------------------------------------------ *)

type plan_summary = {
  phi : float;
  t_psa : float;
  makespan : float;
  pb : int;
  procs : int;
  nodes : int;
  alloc : float array;
  rounded_alloc : int array;
  iterations : int;
  stages : int;
  converged : bool;
  warm_cache : string;
  solve_skipped : bool;
  coalesced : bool;
}

type op_latency = { op : string; buckets : int array }

type server_stats = {
  queue_depth : int;
  max_pending : int;
  shed : int;
  accepted : int;
  served : int;
  bounds_ms : float array;
  latency : op_latency list;
}

type reply =
  | Plan_reply of plan_summary
  | Stats_reply of { cache : Core.Plan_cache.stats; server : server_stats option }
  | Pong
  | Error_reply of { kind : string; message : string; retry_after_ms : int option }

let cache_use_to_string : Core.Pipeline.cache_use -> string = function
  | Hit -> "hit"
  | Shape_hit -> "shape_hit"
  | Miss -> "miss"
  | Off -> "off"

let plan_reply ~id (plan : Core.Pipeline.plan) =
  Json.Obj
    (with_id id
       [
         ("status", Json.Str "ok");
         ("phi", Json.Num plan.allocation.phi);
         ("t_psa", Json.Num plan.psa.t_psa);
         ("makespan", Json.Num (Core.Schedule.makespan plan.psa.schedule));
         ("pb", Json.int plan.psa.pb);
         ("procs", Json.int plan.procs);
         ("nodes", Json.int (Mdg.Graph.num_nodes plan.graph));
         ("alloc", Json.float_array plan.allocation.alloc);
         ("rounded_alloc", Json.int_array plan.psa.rounded_alloc);
         ( "solver",
           Json.Obj
             [
               ("iterations", Json.int plan.allocation.solver.iterations);
               ("stages", Json.int plan.allocation.solver.stages);
               ("converged", Json.Bool plan.allocation.solver.converged);
             ] );
         ( "cache",
           Json.Obj
             [
               ("warm", Json.Str (cache_use_to_string plan.cache.warm));
               ("solve_skipped", Json.Bool plan.cache.solve_skipped);
               ("coalesced", Json.Bool plan.cache.coalesced);
             ] );
       ])

let server_stats_to_json (s : server_stats) =
  Json.Obj
    [
      ("queue_depth", Json.int s.queue_depth);
      ("max_pending", Json.int s.max_pending);
      ("shed", Json.int s.shed);
      ("accepted", Json.int s.accepted);
      ("served", Json.int s.served);
      ( "latency",
        Json.Obj
          [
            ("bounds_ms", Json.float_array s.bounds_ms);
            ( "ops",
              Json.List
                (List.map
                   (fun l ->
                     Json.Obj
                       [
                         ("op", Json.Str l.op);
                         ("buckets", Json.int_array l.buckets);
                       ])
                   s.latency) );
          ] );
    ]

let stats_reply ~id ?server (s : Core.Plan_cache.stats) =
  Json.Obj
    (with_id id
       ([
          ("status", Json.Str "ok");
          ( "stats",
            Json.Obj
              [
                ("tape_hits", Json.int s.tape_hits);
                ("tape_misses", Json.int s.tape_misses);
                ("warm_hits", Json.int s.warm_hits);
                ("warm_shape_hits", Json.int s.warm_shape_hits);
                ("warm_procs_hits", Json.int s.warm_procs_hits);
                ("warm_misses", Json.int s.warm_misses);
                ("coalesce_leaders", Json.int s.coalesce_leaders);
                ("coalesce_hits", Json.int s.coalesce_hits);
                ("warm_entries", Json.int s.warm_entries);
              ] );
        ]
       @
       match server with
       | None -> []
       | Some srv -> [ ("server", server_stats_to_json srv) ]))

let pong_reply ~id = Json.Obj (with_id id [ ("status", Json.Str "ok") ])

let error_reply ~id ~kind message =
  Json.Obj
    (with_id id
       [
         ("status", Json.Str "error");
         ("kind", Json.Str kind);
         ("message", Json.Str message);
       ])

let overloaded_kind = "overloaded"

let overloaded_reply ~id ~retry_after_ms =
  Json.Obj
    (with_id id
       [
         ("status", Json.Str "error");
         ("kind", Json.Str overloaded_kind);
         ( "message",
           Json.Str
             (Printf.sprintf
                "server overloaded: request shed; retry after ~%d ms"
                retry_after_ms) );
         ("retry_after_ms", Json.int retry_after_ms);
       ])

let pipeline_error_reply ~id err =
  error_reply ~id
    ~kind:(Core.Pipeline.error_kind err)
    (Core.Pipeline.error_to_string err)

let decode_plan_summary j =
  let* phi = Json.num_field "phi" j in
  let* t_psa = Json.num_field "t_psa" j in
  let* makespan = Json.num_field "makespan" j in
  let* pb = Json.int_field "pb" j in
  let* procs = Json.int_field "procs" j in
  let* nodes = Json.int_field "nodes" j in
  let floats l =
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | x :: rest ->
          let* x = Json.to_num x in
          go (x :: acc) rest
    in
    go [] l
  in
  let ints l =
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | x :: rest ->
          let* x = Json.to_int x in
          go (x :: acc) rest
    in
    go [] l
  in
  let* alloc = Result.bind (Json.field "alloc" j) Json.to_list in
  let* alloc = floats alloc in
  let* rounded = Result.bind (Json.field "rounded_alloc" j) Json.to_list in
  let* rounded_alloc = ints rounded in
  let* solver = Json.field "solver" j in
  let* iterations = Json.int_field "iterations" solver in
  let* stages = Json.int_field "stages" solver in
  let* converged =
    match Json.member "converged" solver with
    | Some (Json.Bool b) -> Ok b
    | _ -> Error "field \"converged\": expected a bool"
  in
  let* cache = Json.field "cache" j in
  let* warm_cache = Json.str_field "warm" cache in
  let* solve_skipped =
    match Json.member "solve_skipped" cache with
    | Some (Json.Bool b) -> Ok b
    | _ -> Error "field \"solve_skipped\": expected a bool"
  in
  let* coalesced =
    match Json.member "coalesced" cache with
    | Some (Json.Bool b) -> Ok b
    | None -> Ok false
    | Some _ -> Error "field \"coalesced\": expected a bool"
  in
  Ok
    {
      phi;
      t_psa;
      makespan;
      pb;
      procs;
      nodes;
      alloc;
      rounded_alloc;
      iterations;
      stages;
      converged;
      warm_cache;
      solve_skipped;
      coalesced;
    }

let decode_stats j =
  let* s = Json.field "stats" j in
  let* tape_hits = Json.int_field "tape_hits" s in
  let* tape_misses = Json.int_field "tape_misses" s in
  let* warm_hits = Json.int_field "warm_hits" s in
  let* warm_shape_hits = Json.int_field "warm_shape_hits" s in
  let* warm_procs_hits = Json.int_field "warm_procs_hits" s in
  let* warm_misses = Json.int_field "warm_misses" s in
  let* coalesce_leaders = Json.int_field "coalesce_leaders" s in
  let* coalesce_hits = Json.int_field "coalesce_hits" s in
  let* warm_entries = Json.int_field "warm_entries" s in
  Ok
    {
      Core.Plan_cache.tape_hits;
      tape_misses;
      warm_hits;
      warm_shape_hits;
      warm_procs_hits;
      warm_misses;
      coalesce_leaders;
      coalesce_hits;
      warm_entries;
    }

let decode_server_stats j =
  match Json.member "server" j with
  | None | Some Json.Null -> Ok None
  | Some s ->
      let* queue_depth = Json.int_field "queue_depth" s in
      let* max_pending = Json.int_field "max_pending" s in
      let* shed = Json.int_field "shed" s in
      let* accepted = Json.int_field "accepted" s in
      let* served = Json.int_field "served" s in
      let* lat = Json.field "latency" s in
      let* bounds = Result.bind (Json.field "bounds_ms" lat) Json.to_list in
      let* bounds_ms =
        let rec go acc = function
          | [] -> Ok (Array.of_list (List.rev acc))
          | x :: rest ->
              let* x = Json.to_num x in
              go (x :: acc) rest
        in
        go [] bounds
      in
      let* ops = Result.bind (Json.field "ops" lat) Json.to_list in
      let* latency =
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | o :: rest ->
              let* op = Json.str_field "op" o in
              let* bl = Result.bind (Json.field "buckets" o) Json.to_list in
              let* buckets =
                let rec ints acc = function
                  | [] -> Ok (Array.of_list (List.rev acc))
                  | x :: rest ->
                      let* x = Json.to_int x in
                      ints (x :: acc) rest
                in
                ints [] bl
              in
              go ({ op; buckets } :: acc) rest
        in
        go [] ops
      in
      Ok
        (Some
           { queue_depth; max_pending; shed; accepted; served; bounds_ms; latency })

let decode_reply line =
  let* j = Json.of_string line in
  let id = request_id j in
  let* status = Json.str_field "status" j in
  match status with
  | "error" ->
      let* kind = Json.str_field "kind" j in
      let* message = Json.str_field "message" j in
      let* retry_after_ms =
        match Json.member "retry_after_ms" j with
        | None | Some Json.Null -> Ok None
        | Some v -> Result.map Option.some (Json.to_int v)
      in
      Ok (id, Error_reply { kind; message; retry_after_ms })
  | "ok" ->
      if Json.member "phi" j <> None then
        let* s = decode_plan_summary j in
        Ok (id, Plan_reply s)
      else if Json.member "stats" j <> None then
        let* cache = decode_stats j in
        let* server = decode_server_stats j in
        Ok (id, Stats_reply { cache; server })
      else Ok (id, Pong)
  | other -> Error (Printf.sprintf "unknown status %S" other)
