(* Benchmark-side spans and self-time attribution.

   A span covers one call into a layer: its name, the request it belongs
   to, the span that caused it, and its extent in seconds on the
   monotonic clock.  Spans are kept in memory during the traced replay
   and written out when the run ends. *)

type span = {
  name : string;
  req : int;
  parent : int;  (** index of the parent span, [-1] for a request root *)
  start : float;
  stop : float;
}

type t = { mutable spans : span array; mutable len : int }

let create () = { spans = [||]; len = 0 }

(* Append a span and return its index (the id children refer to). *)
let add t span =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (Int.max 1024 (2 * t.len)) span in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  t.spans.(t.len) <- span;
  t.len <- t.len + 1;
  t.len - 1

(* Set the end of a span opened before its children were known. *)
let close t id stop = t.spans.(id) <- { (t.spans.(id)) with stop }

let to_array t = Array.sub t.spans 0 t.len

(* A layer's self time: its span's duration minus the part of that
   interval its child spans cover.  Children may overlap one another;
   the covered part is the measure of the union of their intervals,
   clipped to the parent. *)
let self_times spans =
  let n = Array.length spans in
  let children = Array.make n [] in
  Array.iteri
    (fun i s -> if s.parent >= 0 then children.(s.parent) <- i :: children.(s.parent))
    spans;
  Array.mapi
    (fun i s ->
      let intervals =
        List.filter_map
          (fun c ->
            let a = Float.max s.start spans.(c).start
            and b = Float.min s.stop spans.(c).stop in
            if b > a then Some (a, b) else None)
          children.(i)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0.0, Float.neg_infinity) intervals
      in
      s.stop -. s.start -. covered)
    spans

(* Nesting of spans reported at completion (as [Obs.span] emits them:
   a child completes before its parent).  Given the [(start, stop)]
   extents in completion order, return each span's parent as an index
   into the same array, or [-1] for an outermost span.  Walking the
   spans from the last completed to the first, a span's parent is the
   innermost enclosing span still open: one that completed later and
   started no later than it. *)
let nest_completed extents =
  let n = Array.length extents in
  let parent = Array.make n (-1) in
  let stack = ref [] in
  for i = n - 1 downto 0 do
    let start, _ = extents.(i) in
    let rec pop = function
      | p :: rest when fst extents.(p) > start -> pop rest
      | st -> st
    in
    stack := pop !stack;
    (match !stack with p :: _ -> parent.(i) <- p | [] -> ());
    stack := i :: !stack
  done;
  parent
