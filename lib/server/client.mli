(** Blocking client for the plan server's protocol.

    One connection, one outstanding request at a time: each call
    writes a request line and blocks until the reply line arrives.
    The typed helpers stamp sequential integer ids.  For concurrent
    load, open several clients, one per domain (the server tests'
    concurrent and coalescing cases do). *)

type t

val connect : ?addr:string -> port:int -> unit -> t
(** Raises [Unix.Unix_error] if the connection is refused. *)

val close : t -> unit

val rpc : t -> Json.t -> (Json.t * Protocol.reply, string) result
(** Send one raw request value, await the reply: the echoed id and
    decoded reply.  [Error] means the connection died or the reply was
    unparseable — protocol-level failures arrive as
    {!Protocol.Error_reply}. *)

val send_line : t -> string -> unit
(** Escape hatch for protocol tests: ship an arbitrary (possibly
    malformed) line. *)

val recv_line : t -> (string, string) result

val plan :
  ?params:Costmodel.Params.t ->
  ?pb:int ->
  t ->
  Mdg.Graph.t ->
  procs:int ->
  (Protocol.plan_summary, string) result
(** Request a plan; [Error] renders protocol error replies as
    ["kind: message"] (a shed request reads ["overloaded: ..."] — the
    server closes the connection after that reply, so retry on a fresh
    {!connect}). *)

val stats :
  t ->
  (Core.Plan_cache.stats * Protocol.server_stats option, string) result
(** Cache statistics plus, when the peer is a live daemon, its
    serving-side counters (queue depth, sheds, latency buckets). *)

val ping : t -> (unit, string) result
