(** Wire protocol of the plan server: newline-delimited JSON.

    Each request is one JSON object on one line; the server answers
    with exactly one JSON object line per request, in order.  Requests
    carry an optional ["id"] (any JSON value) that is echoed verbatim
    in the reply, so pipelining clients can match answers to
    questions.

    {2 Requests}

    {v
      {"op":"plan", "id":1, "mdg":"mdg\nnode 0 mul:64 \"m\"\n...",
       "procs":64,
       "params":{"transfer":{"t_ss":...,"t_ps":...,"t_sr":...,
                             "t_pr":...,"t_n":...},
                 "processing":[{"kernel":"mul:64",
                                "alpha":0.013,"tau":0.58}, ...]},
       "options":{"pb":8}}
      {"op":"stats","id":2}
      {"op":"ping","id":3}
    v}

    ["op"] defaults to ["plan"].  ["mdg"] is the {!Mdg.Serialize} line
    format embedded as a JSON string; ["params"] is optional (the
    server's calibrated default applies) as is ["options"].

    {2 Replies}

    A plan reply ([status = "ok"]) carries the plan summary — Φ, the
    schedule makespan, per-node allocations, solver convergence and
    the cache outcome for this request:

    {v
      {"id":1,"status":"ok","phi":0.81,"t_psa":0.93,"makespan":0.93,
       "pb":8,"procs":64,"nodes":25,
       "alloc":[...],"rounded_alloc":[...],
       "solver":{"iterations":312,"stages":5,"converged":true},
       "cache":{"warm":"hit","solve_skipped":true,"coalesced":false}}
    v}

    Failures — malformed JSON, an invalid MDG, or any typed
    {!Core.Pipeline.error} — answer [status = "error"] with a
    machine-readable ["kind"] and a human-readable ["message"].  The
    kinds are the {!Core.Pipeline.error_kind} tags plus
    ["protocol_error"] (a malformed line), ["internal_error"] (a bug
    in a pipeline stage), ["overloaded"] (the connection was shed) and
    ["request_too_large"] (a request line longer than the daemon's
    16 MiB cap).  A line nesting arrays and objects deeper than
    {!Json.max_depth} (64) levels is malformed, and so are cost
    constants that {!Costmodel.Params} rejects (a negative or
    non-finite transfer constant, say) and an MDG that {!Mdg.Graph}
    rejects (a non-finite kernel constant, say); all answer
    ["protocol_error"] with a message naming the limit or the
    constant.  A malformed line never terminates the connection.
    After an ["overloaded"] reply (which carries a ["retry_after_ms"]
    hint; the request was never admitted) or a ["request_too_large"]
    reply the server closes the connection. *)

(** {2 Requests}

    A line decodes in two steps: {!decode_envelope} reads the JSON and
    every field but the graph, keeping the ["mdg"] text as received;
    {!parse_plan} then parses that text.  The plan server looks an
    envelope up in its cache first, so an exact repeat of an earlier
    request is answered without the second step.  {!decode_request}
    runs both. *)

type plan_envelope = {
  mdg : string;  (** the MDG text, as received *)
  procs : int;
  params : Costmodel.Params.t option;  (** [None]: server default *)
  pb : int option;  (** processor-bound override (power of two) *)
}

type envelope = Plan_line of plan_envelope | Stats_line | Ping_line

type plan_request = {
  graph : Mdg.Graph.t;
  procs : int;
  params : Costmodel.Params.t option;  (** [None]: server default *)
  pb : int option;  (** processor-bound override (power of two) *)
}

type request =
  | Plan of plan_request
  | Stats  (** cache statistics snapshot *)
  | Ping

val decode_envelope :
  ?pos:int -> ?len:int -> string -> (Json.t * envelope, Json.t * string) result
(** Decode one request line, [s.[pos, pos + len)] (by default all of
    [s]), all but a plan's graph; nothing decoded shares [s].  Both
    constructors
    carry the request id to echo ([Json.Null] when absent or
    unrecoverable); [Error] carries the protocol-error message.  When a
    plan's other fields are malformed, the MDG text is parsed after
    all, so a bad MDG is reported first, as {!decode_request} does. *)

val parse_plan : plan_envelope -> (plan_request, string) result
(** Parse the envelope's MDG text; [Error] is the protocol-error
    message. *)

val decode_request : string -> (Json.t * request, Json.t * string) result
(** {!decode_envelope}, then {!parse_plan} for a plan line. *)

val encode_plan_request :
  ?id:Json.t ->
  ?params:Costmodel.Params.t ->
  ?pb:int ->
  Mdg.Graph.t ->
  procs:int ->
  Json.t
(** Client-side encoder for a plan request. *)

val encode_stats_request : ?id:Json.t -> unit -> Json.t

val encode_ping_request : ?id:Json.t -> unit -> Json.t

(** {2 Cost parameters} *)

val params_to_json : Costmodel.Params.t -> Json.t

val params_of_json : Json.t -> (Costmodel.Params.t, string) result
(** [Error] names the offending field or constant; never raises. *)

(** {2 Replies} *)

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
      (** ["hit"] / ["miss"] / ["off"].  ["shape_hit"] is decoded but
          never sent: the cache keeps no per-shape seeds *)
  solve_skipped : bool;
  coalesced : bool;
      (** served by a concurrent identical request's solve
          ({!Core.Plan_cache.coalesce}) *)
}

type op_latency = { op : string; buckets : int array }
(** Latency histogram for one op: [buckets] has one count per bound in
    {!server_stats.bounds_ms} plus a final overflow bucket. *)

(** Daemon-side serving statistics, carried in the [stats] reply's
    ["server"] section (absent when the reply was produced by
    something other than a live daemon). *)
type server_stats = {
  queue_depth : int;  (** connections admitted but not yet taken by a worker *)
  max_pending : int;  (** the daemon's accept-queue bound *)
  shed : int;  (** connections answered [overloaded] and closed *)
  accepted : int;  (** connections admitted to the queue *)
  served : int;  (** request lines answered *)
  bounds_ms : float array;  (** histogram bucket upper bounds, ms *)
  latency : op_latency list;  (** per-op latency histograms *)
}

type reply =
  | Plan_reply of plan_summary
  | Stats_reply of { cache : Core.Plan_cache.stats; server : server_stats option }
  | Pong
  | Error_reply of { kind : string; message : string; retry_after_ms : int option }
      (** [retry_after_ms] is only set on [overloaded] shed replies *)

val plan_reply : id:Json.t -> Core.Pipeline.plan -> Json.t

val hit_reply :
  id:Json.t ->
  procs:int ->
  Core.Allocation.result * Core.Plan_cache.reply_fields ->
  Json.t
(** The reply to an exact hit ({!Core.Pipeline.exact_hit}) on [procs]
    processors: byte for byte the {!plan_reply} of the plan
    {!Core.Pipeline.plan} returns for the same request, whose cache
    outcome is a hit that skipped the solve. *)

val stats_reply : id:Json.t -> ?server:server_stats -> Core.Plan_cache.stats -> Json.t
(** Carries every {!Core.Plan_cache.stats} field.  [warm_shape_hits]
    and [warm_procs_hits] are always 0; they stay on the wire because
    {!decode_reply} requires them and the benchmark decodes stats
    replies with it. *)

val pong_reply : id:Json.t -> Json.t

val error_reply : id:Json.t -> kind:string -> string -> Json.t

val overloaded_kind : string
(** The error-reply kind of a shed request: ["overloaded"]. *)

val overloaded_reply : id:Json.t -> retry_after_ms:int -> Json.t
(** The load-shedding reply: [status = "error"], [kind =
    {!overloaded_kind}], and a ["retry_after_ms"] hint after which the
    client should retry.  Sent by the daemon when the accept queue is
    over capacity, before closing the connection. *)

val pipeline_error_reply : id:Json.t -> Core.Pipeline.error -> Json.t

val decode_reply : string -> (Json.t * reply, string) result
(** Client-side decoder: the echoed id plus the typed reply. *)
