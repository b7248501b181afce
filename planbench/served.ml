(* The plan server in its own OS process, and the closed-loop client
   that drives it.  The timed loop only writes pre-encoded lines and
   reads reply lines into a buffer sized in advance; replies are
   decoded and checked after timing. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type server = { pid : int; port : int; out : Unix.file_descr }

(* Start [exe serve] with default options on an ephemeral port and wait
   for its "listening on ADDR:PORT" line. *)
let start ~exe =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe [| exe; "serve"; "--port"; "0" |] Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let buf = Buffer.create 128 in
  let byte = Bytes.create 1 in
  let rec first_line () =
    match Unix.read r byte 0 1 with
    | 0 -> Buffer.contents buf
    | _ when Bytes.get byte 0 = '\n' -> Buffer.contents buf
    | _ ->
        Buffer.add_bytes buf byte;
        first_line ()
  in
  let line = first_line () in
  match String.rindex_opt line ':' with
  | Some i -> (
      match Scanf.sscanf_opt (String.sub line (i + 1) (String.length line - i - 1)) "%d" Fun.id with
      | Some port -> { pid; port; out = r }
      | None -> failwith ("unexpected server banner: " ^ line))
  | None -> failwith ("server did not start: " ^ line)

(* SIGTERM drains the server; it exits on its own within a poll
   interval.  A server that has not exited after ten seconds is
   killed. *)
let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.02;
        wait ()
    | 0, _ ->
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] s.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  Unix.close s.out

type conn = { fd : Unix.file_descr; chunk : Bytes.t; mutable lo : int; mutable hi : int }

let connect ~port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  (* A reply that has not arrived after a minute counts as failed. *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; chunk = Bytes.create 65536; lo = 0; hi = 0 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off

(* Append the next reply line, without its newline, to [buf].  False
   when the connection ended or timed out first. *)
let read_reply c buf =
  let rec scan i =
    if i < c.hi then
      if Bytes.get c.chunk i = '\n' then begin
        Buffer.add_subbytes buf c.chunk c.lo (i - c.lo);
        c.lo <- i + 1;
        true
      end
      else scan (i + 1)
    else begin
      Buffer.add_subbytes buf c.chunk c.lo (c.hi - c.lo);
      c.lo <- 0;
      c.hi <- 0;
      match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
      | 0 -> false
      | n ->
          c.hi <- n;
          scan 0
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> scan 0
      | exception Unix.Unix_error _ -> false
    end
  in
  scan c.lo

(* One request line (newline included) and its reply. *)
let rpc c line =
  let buf = Buffer.create 4096 in
  match write_all c.fd line 0 with
  | () -> if read_reply c buf then Some (Buffer.contents buf) else None
  | exception Unix.Unix_error _ -> None

type loop = {
  lines : string array;
  latency_ms : float array;  (** [infinity] for a request with no reply *)
  ends : int array;  (** end of each reply in [buf], [-1] if none *)
  buf : Buffer.t;
  mutable broken : bool;
}

(* [reply_bytes] sizes the reply buffer so it never grows while
   timing. *)
let loop lines ~reply_bytes =
  let n = Array.length lines in
  {
    lines;
    latency_ms = Array.make n infinity;
    ends = Array.make n (-1);
    buf = Buffer.create (Int.max 4096 reply_bytes);
    broken = false;
  }

(* Send lines [lo, hi) one after another, each after the previous
   reply, and time each from its write to its reply on the monotonic
   clock.  A connection that fails stays failed. *)
let segment c l ~lo ~hi =
  try
    for j = lo to hi - 1 do
      if l.broken then raise Exit;
      let t0 = now () in
      write_all c.fd l.lines.(j) 0;
      if not (read_reply c l.buf) then raise Exit;
      l.latency_ms.(j) <- (now () -. t0) *. 1e3;
      l.ends.(j) <- Buffer.length l.buf
    done
  with Exit | Unix.Unix_error _ -> l.broken <- true

(* Reply lines in request order, [""] for a request with no reply. *)
let replies l =
  let prev = ref 0 in
  Array.map
    (fun e ->
      if e < 0 then ""
      else begin
        let s = Buffer.sub l.buf !prev (e - !prev) in
        prev := e;
        s
      end)
    l.ends

(* Round [k] of [rounds]: every connection runs its [k]-th consecutive
   segment of lines in a closed loop on its own thread. *)
let run_round conns loops ~rounds k =
  let threads =
    Array.mapi
      (fun i c ->
        let n = Array.length loops.(i).lines in
        Thread.create
          (fun () -> segment c loops.(i) ~lo:(k * n / rounds) ~hi:((k + 1) * n / rounds))
          ())
      conns
  in
  Array.iter Thread.join threads
