(** Kernel-wide telemetry: a metrics registry, a structured trace recorder
    with a process/track model, and a Chrome trace-event (catapult) JSON
    exporter.

    The library is a leaf: it depends on nothing and never reads the wall
    clock, so every snapshot and exported trace is byte-reproducible for a
    given sequence of updates. Timestamps are plain integers — the simulator
    passes nanoseconds since sim start ([Time.t]).

    Two switches control cost:

    - {!enabled} (default [true]) gates {e all} recording. Metric updates
      against pre-resolved handles are a single branch + float store when
      enabled and a single branch when disabled, so instrumented hot paths
      stay within noise of uninstrumented ones.
    - {!Tracing.start} additionally arms event recording. Until armed (for
      instance by [psbox_sim --trace-out]), {!Tracing.span} and friends are
      a branch and nothing else — no allocation, no buffering. *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Master switch. When [false], metric updates and trace recording are
    no-ops; registration ({!Metrics.counter} etc.) still works so handles
    can be created unconditionally. *)

(** {1 Metrics registry}

    Named counters, gauges and fixed-bucket histograms. Names are
    hierarchical, dot-separated, lower-case:
    [subsystem[.instance].quantity] — e.g. [smp.core0.ctx_switches],
    [budget.app3.throttle_level], [sim.events_fired].

    Handles are found-or-created by name in a process-global memo (guarded
    by a mutex, so registration is safe from any domain): calling
    {!Metrics.counter} twice with the same name returns the same handle, so
    several simulator instances share (and sum into) the same metric. The
    mutable state behind a handle, however, is {e domain-local}: each
    domain — and each {!Metrics.with_fresh_store} scope — accumulates into
    its own store, so concurrent device simulations never interleave
    metrics, and a shard's totals are collected with {!Metrics.export} and
    combined with {!Metrics.merge}. Resolve handles once, at subsystem
    creation; hot-path updates on a handle are O(1) and allocation-free. *)
module Metrics : sig
  type counter
  type gauge
  type histogram

  val counter : string -> counter
  (** Find or create. @raise Invalid_argument if [name] is already
      registered as a different kind of metric. *)

  val incr : counter -> unit
  val add : counter -> float -> unit
  val counter_value : counter -> float

  val gauge : string -> gauge
  val set : gauge -> float -> unit

  val set_max : gauge -> float -> unit
  (** Keep the running maximum of the observed values. *)

  val gauge_value : gauge -> float

  val histogram : string -> edges:float array -> histogram
  (** Fixed upper-bound bucket edges, strictly increasing. A value [v]
      lands in the first bucket with [v <= edge], or in the implicit
      [+inf] overflow bucket. @raise Invalid_argument on empty or
      non-increasing edges, or if [name] exists with different edges. *)

  val observe : histogram -> float -> unit

  val bucket_counts : histogram -> int array
  (** Per-bucket (non-cumulative) counts; last entry is the overflow
      bucket. Length = [Array.length edges + 1]. *)

  val quantile : histogram -> float -> float option
  (** Prometheus-style quantile estimate from the bucket counts: locate
      the bucket holding the rank, interpolate linearly inside it;
      observations in the [+inf] overflow bucket report the last finite
      edge. [None] on an empty histogram; exactly [0] (no interpolation)
      when every recorded observation was zero, so all-zero histograms
      never report phantom mass from the first bucket. *)

  (** {2 Windowed counter rates}

      The delta bookkeeping behind "events per second over the last
      window", packaged once so streaming consumers (health rules) don't
      each re-implement it. A tracker is an independent cursor over one
      named metric: it remembers the value it saw at the previous sample
      and answers the per-second delta. *)

  type rate

  val rate : string -> rate
  (** A fresh tracker over the named counter or gauge. The metric does not
      have to exist yet. *)

  val rate_sample : rate -> now_s:float -> float option
  (** Record the metric's current value at [now_s] and return
      [(value - previous) / (now_s - previous_t)]. [None] on the first
      sample after creation, whenever the metric is unregistered in the
      current store (the tracker then restarts from scratch), or if no
      time has passed. *)

  val snapshot : unit -> (string * string) list
  (** Every registered metric as [(row_name, value)] pairs, metrics sorted
      by name, histogram bucket rows ([name{le=...}], cumulative, then
      [name.sum], then [name.p50]/[name.p95]/[name.p99] estimated with
      {!quantile} when non-empty) kept in bucket order. Deterministic:
      same update history, same bytes. *)

  val values : unit -> (string * float) list
  (** Counters and gauges only (no histogram rows), sorted by name. *)

  val find : string -> float option
  (** Current value of a counter or gauge by name; [None] if unregistered
      or a histogram. *)

  val dump : Format.formatter -> unit -> unit
  (** Print {!snapshot} one [name value] row per line. *)

  val dump_string : unit -> string

  val reset : unit -> unit
  (** Zero every metric in the current domain's store (registrations
      survive). Intended for tests and for isolating per-run counts in
      long-lived processes. *)

  (** {2 Mergeable exports}

      A snapshot of the current domain's store as data rather than
      formatted rows, mergeable across devices/shards: counters sum,
      gauges keep the max, histograms merge bucket-wise. This is the fleet
      reduction primitive — each device exports at end of run, and the
      exports fold into one fleet-level export whose {!export_rows} look
      exactly like a single device's {!snapshot}. *)

  type value =
    | Counter_v of float
    | Gauge_v of float
    | Histogram_v of { edges : float array; counts : int array; sum : float }
        (** [counts] has [Array.length edges + 1] entries; last is the
            [+inf] overflow bucket. *)

  type export = (string * value) list
  (** Sorted by name, each name at most once. *)

  val export : unit -> export
  (** Every metric in the current domain's store, values copied (later
      updates don't mutate the export). *)

  val merge : export -> export -> export
  (** Union by name: counters sum, gauges take the maximum, histograms add
      bucket counts and sums. Associative and commutative, so a fleet
      reduction is order-insensitive up to float addition order — merge in
      a fixed order for byte-determinism. @raise Invalid_argument if a
      name appears in both with different kinds or histogram edges. *)

  val export_rows : export -> (string * string) list
  (** Render an export in the exact row format of {!snapshot} —
      [snapshot () = export_rows (export ())]. *)

  val with_fresh_store : (unit -> 'a) -> 'a
  (** [with_fresh_store f] runs [f] with the current domain switched to a
      brand-new empty metric store, then restores the previous store
      (also on exception). Handles created before, during or after remain
      valid in both scopes. This is how one device simulation is isolated
      from the next when devices run sequentially in a single domain. *)
end

(** {1 OpenMetrics / Prometheus text exposition}

    Renders a metric export in the Prometheus text exposition format
    ([# TYPE] lines; histograms as cumulative [_bucket] rows closed by
    [+Inf], plus [_sum] and [_count]). Dots in metric names become
    underscores; rows keep the export's sorted-by-name order, so output is
    byte-deterministic for a given update history — the [--metrics-out]
    file format. *)
module Openmetrics : sig
  val pp : Format.formatter -> Metrics.export -> unit
  val of_export : Metrics.export -> string

  val to_string : unit -> string
  (** The current domain's store, exported and rendered. *)

  val write : string -> Metrics.export -> unit
  (** [write path e] — render to a file. *)
end

(** {1 Structured tracing}

    Events carry a [track] (Chrome "process", e.g. a subsystem such as
    ["kernel.cfs"] or ["kernel.accel.gpu"]) and a [lane] (Chrome "thread"
    within the track, e.g. ["core0"] or ["app3"]). Recording is buffered
    in memory, capped (default 2M events, see {!Tracing.set_limit}) with a
    deterministic drop count, and only active when both {!enabled} and
    {!Tracing.start} have been set. The recorder state (armed flag, buffer,
    cap) is domain-local: a worker domain never interleaves events into
    another domain's trace. *)
module Tracing : sig
  type kind = Span | Instant | Sample

  type event = {
    track : string;
    lane : string;
    kind : kind;
    name : string;
    ts : int;  (** nanoseconds *)
    dur : int;  (** nanoseconds; 0 unless [kind = Span] *)
    args : (string * float) list;
  }

  val start : unit -> unit
  (** Arm recording (subject to {!enabled}). *)

  val stop : unit -> unit

  val recording : unit -> bool

  val clear : unit -> unit
  (** Drop all buffered events and reset the drop counter. *)

  val span :
    track:string ->
    lane:string ->
    name:string ->
    ?args:(string * float) list ->
    start:int ->
    stop:int ->
    unit ->
    unit

  val instant :
    track:string ->
    lane:string ->
    name:string ->
    ?args:(string * float) list ->
    int ->
    unit

  val sample : track:string -> name:string -> int -> float -> unit
  (** A counter-timeline sample (Chrome ["C"] event). *)

  val events : unit -> event list
  (** Recorded events, oldest first. *)

  val length : unit -> int

  val dropped : unit -> int
  (** Events discarded after the buffer cap was reached. *)

  val set_limit : int -> unit
end

(** {1 Minimal JSON}

    A tiny parser used to validate exported traces ([psbox_sim trace-check],
    [make trace-smoke]) and for round-trip tests — no external dependency. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val parse : string -> (t, string) result
  val member : string -> t -> t option
end

(** {1 Chrome trace-event exporter}

    Serialises {!Tracing.event}s to the catapult JSON format accepted by
    [chrome://tracing] and [https://ui.perfetto.dev]. Tracks map to pids and
    lanes to tids (assigned by first appearance, so output is deterministic),
    announced with [process_name]/[thread_name] metadata events. Spans
    become ["X"] complete events, instants ["i"], samples ["C"]; timestamps
    are microseconds with nanosecond precision. *)
module Chrome_trace : sig
  val pp : Format.formatter -> Tracing.event list -> unit
  val to_string : Tracing.event list -> string

  val write : string -> Tracing.event list -> unit
  (** [write path events] — export to a file. *)

  val validate : string -> (int, string) result
  (** Parse trace JSON text and return the number of non-metadata events,
      or a description of what is malformed. *)
end
