module Events = Events
module Sink = Sink
module Recorder = Recorder
module Chrome_format = Chrome_format
module Jsonl_format = Jsonl_format
module Summary = Summary

type t = Sink.t

let null = Sink.null

let enabled = Sink.enabled

external monotonic : unit -> (float[@unboxed])
  = "paradigm_obs_monotonic" "paradigm_obs_monotonic_unboxed"
[@@noalloc]

let epoch = monotonic ()

let now () = monotonic () -. epoch

let emit = Sink.emit

let flush = Sink.flush

let span t ?(pid = 0) ?(tid = 0) ?(cat = "") ?(args = []) name f =
  match t with
  | Sink.Null -> f ()
  | _ ->
      let t0 = now () in
      Fun.protect
        ~finally:(fun () ->
          Sink.emit t
            (Events.Complete
               { name; cat; pid; tid; ts = t0; dur = now () -. t0; args }))
        f

let instant t ?(pid = 0) ?(tid = 0) ?(cat = "") ?ts ?(args = []) name =
  match t with
  | Sink.Null -> ()
  | _ ->
      let ts = match ts with Some ts -> ts | None -> now () in
      Sink.emit t (Events.Instant { name; cat; pid; tid; ts; args })

let counter t ?(pid = 0) ?(tid = 0) ?ts name series =
  match t with
  | Sink.Null -> ()
  | _ ->
      let ts = match ts with Some ts -> ts | None -> now () in
      Sink.emit t (Events.Counter { name; pid; tid; ts; series })

let complete t ?(pid = 0) ?(tid = 0) ?(cat = "") ?(args = []) name ~ts ~dur =
  match t with
  | Sink.Null -> ()
  | _ -> Sink.emit t (Events.Complete { name; cat; pid; tid; ts; dur; args })

let process_name t ~pid name =
  match t with
  | Sink.Null -> ()
  | _ -> Sink.emit t (Events.Process_name { pid; name })

let thread_name t ~pid ~tid name =
  match t with
  | Sink.Null -> ()
  | _ -> Sink.emit t (Events.Thread_name { pid; tid; name })
