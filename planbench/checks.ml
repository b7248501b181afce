(* Output checks.  Each plan must reproduce its Φ through the
   [Convex.Expr] reference engine ([Core.Allocation.evaluate]), which
   shares no evaluation code with the tape the solver used, and must
   satisfy Theorem 3 (T_psa <= factor(p, PB) * Φ). *)

module Protocol = Server.Protocol

(* Tape and expression evaluation agree to ~1e-15 relative. *)
let phi_rel_tol = 1e-9

let check_plan_values params graph ~procs ~alloc ~phi ~t_psa ~pb =
  match Core.Allocation.evaluate params (Mdg.Graph.normalise graph) ~procs ~alloc with
  | exception Invalid_argument msg -> Error ("allocation rejected: " ^ msg)
  | reference when Float.abs (reference -. phi) > phi_rel_tol *. Float.abs reference ->
      Error (Printf.sprintf "Phi %.17g but the reference engine gives %.17g" phi reference)
  | _ ->
      if Core.Bounds.check_theorem3 ~t_psa ~phi ~procs ~pb then Ok ()
      else
        Error
          (Printf.sprintf "Theorem 3 fails: T_psa %.17g, Phi %.17g, p %d, PB %d" t_psa phi procs
             pb)

(* A plan made in process (plan-cold): the value checks plus a full
   schedule validation. *)
let check_plan (p : Core.Pipeline.plan) =
  match
    check_plan_values p.params p.graph ~procs:p.procs ~alloc:p.allocation.alloc
      ~phi:(Core.Pipeline.phi p) ~t_psa:p.psa.t_psa ~pb:p.psa.pb
  with
  | Error _ as e -> e
  | Ok () -> (
      match Core.Schedule.validate p.params p.graph (Core.Pipeline.schedule p) with
      | Ok () -> Ok ()
      | Error problems -> Error ("invalid schedule: " ^ String.concat "; " problems))

(* A served reply, against the request line it answers. *)
let check_reply ~request ~reply =
  match (Protocol.decode_request request, Protocol.decode_reply reply) with
  | _, Error msg -> Error ("undecodable reply: " ^ msg)
  | _, Ok (_, Protocol.Error_reply { kind; message; _ }) -> Error (kind ^ ": " ^ message)
  | _, Ok (_, (Protocol.Stats_reply _ | Protocol.Pong)) -> Error "not a plan reply"
  | Ok (_, Protocol.Plan { graph; params = Some params; procs; _ }), Ok (_, Protocol.Plan_reply s)
    -> (
      match
        check_plan_values params graph ~procs ~alloc:s.alloc ~phi:s.phi ~t_psa:s.t_psa ~pb:s.pb
      with
      | Ok () -> Ok s
      | Error e -> Error e)
  | _ -> Error "request line is not a plan request with params"

(* Replies for the same key are byte-identical on exact hits, so each
   distinct (request, reply) pair is checked once. *)
let memo () =
  let seen = Hashtbl.create 256 in
  fun ~request ~reply ->
    match Hashtbl.find_opt seen (request, reply) with
    | Some r -> r
    | None ->
        let r = check_reply ~request ~reply in
        Hashtbl.add seen (request, reply) r;
        r
