(** Multicore CPU model with a single shared power rail.

    Modelled after the dual-core Cortex-A15 of the paper's AM57EVM platform:
    all cores share one measurable rail, so their power impacts entangle
    (Figure 3(a)) — total power is [idle + uncore + n_busy * core], not
    [n_busy * (single-instance power)], because the idle and uncore terms are
    shared. The DVFS governor supplies the lingering-state effect of
    Figure 3(c). *)

type t

val default_opps : Dvfs.opp array
(** Five OPPs from 500 MHz to 1.5 GHz with Cortex-A15-like per-core and
    uncore draws. *)

val create :
  Psbox_engine.Sim.t ->
  ?retention:Psbox_engine.Time.span ->
  ?name:string ->
  ?opps:Dvfs.opp array ->
  ?governor:Dvfs.governor ->
  ?idle_w:float ->
  cores:int ->
  unit ->
  t
(** Default governor is ondemand with an 80% up-threshold and 50 ms sampling
    period; default idle draw 0.3 W. [retention] bounds the rail's power
    history (see {!Power_rail.create}). *)

val cores : t -> int
val rail : t -> Power_rail.t
val dvfs : t -> Dvfs.t

val set_core_busy : t -> core:int -> bool -> unit
(** Mark a core as executing (or idle). Drives rail power and governor
    utilization. Idempotent. *)

val busy_cores : t -> int
val freq_mhz : t -> int

val busy_core_seconds : t -> float
(** Cumulative busy core-time in seconds since simulation start. Callers
    (e.g. model-based metering) diff two readings to get utilization over a
    window. *)

val active_seconds : t -> float
(** Cumulative non-idle (any core busy) time in seconds — the load notion
    the ondemand governor samples. *)

val stop : t -> unit
(** Stop the governor (end of simulation). *)
