(** Pipeline-wide telemetry.

    One sink observes the whole compilation-and-execution pipeline:
    top-level phase spans, the convex solver's per-stage convergence
    counters, the PSA's rounding/clamping and placement decisions, and
    the machine simulator's event timeline.  Exporters turn a recorded
    stream into a single Chrome trace (every timeline in one file) or
    a JSON-lines log.

    The disabled path is free: {!null} performs no work, {!span}
    on {!null} just runs its thunk, and the [emit_*] helpers return
    before constructing an event.  Hot loops should additionally guard
    argument-list construction with {!enabled}:

    {[
      if Obs.enabled obs then
        Obs.instant obs ~cat:"psa" "psa.place" ~args:[ ... ]
    ]}

    Compiler-side events are stamped with wall-clock seconds since
    {!Obs} was loaded (pid 0 by convention); simulator events carry
    simulated seconds under their own pid, keeping the two timelines
    separate in trace viewers. *)

module Events = Events
module Sink = Sink
module Recorder = Recorder
module Chrome_format = Chrome_format
module Jsonl_format = Jsonl_format
module Summary = Summary

type t = Sink.t

val null : t
(** The disabled sink (zero-cost no-op). *)

val enabled : t -> bool

val now : unit -> float
(** Seconds since the telemetry epoch (process start) on the
    monotonic clock: readings never decrease, whatever happens to the
    wall clock, so span durations are never negative.  The one timing
    source for spans and the plan server's latency histograms. *)

val emit : t -> Events.t -> unit

val flush : t -> unit

val span :
  t ->
  ?pid:int ->
  ?tid:int ->
  ?cat:string ->
  ?args:(string * Events.value) list ->
  string ->
  (unit -> 'a) ->
  'a
(** [span t name f] runs [f ()] and emits a [Complete] event covering
    its wall-clock extent (emitted even if [f] raises).  On {!null}
    it is exactly [f ()]. *)

val instant :
  t ->
  ?pid:int ->
  ?tid:int ->
  ?cat:string ->
  ?ts:float ->
  ?args:(string * Events.value) list ->
  string ->
  unit
(** A point event.  [ts] defaults to {!now}[ ()]. *)

val counter :
  t ->
  ?pid:int ->
  ?tid:int ->
  ?ts:float ->
  string ->
  (string * float) list ->
  unit
(** A sampled set of named values.  [ts] defaults to {!now}[ ()]. *)

val complete :
  t ->
  ?pid:int ->
  ?tid:int ->
  ?cat:string ->
  ?args:(string * Events.value) list ->
  string ->
  ts:float ->
  dur:float ->
  unit
(** A span with caller-supplied extent — used to forward events that
    live on another clock (e.g. simulated time). *)

val process_name : t -> pid:int -> string -> unit

val thread_name : t -> pid:int -> tid:int -> string -> unit
