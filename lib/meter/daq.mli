(** Simulated data-acquisition unit (MCCDAQ USB1608G-like).

    The DAQ samples one or more power rails at a fixed rate (100 kHz in the
    paper's prototype) and timestamps each sample. Because the simulator
    keeps exact piecewise-constant rail histories, sampling is synthesized on
    demand from the history rather than by scheduling one event per sample;
    optional Gaussian measurement noise models the ADC front end. Timestamps
    are reported in the target clock (after clock synchronization), which is
    the simulation clock. *)

type t

val create :
  ?rate_hz:int ->
  ?noise_w:float ->
  ?rng:Psbox_engine.Rng.t ->
  unit ->
  t
(** Defaults: 100 kHz, no noise. [noise_w] is the standard deviation of
    additive Gaussian noise per sample; it requires [rng]. *)

val rate_hz : t -> int

val period : t -> Psbox_engine.Time.span

val capture :
  t ->
  Psbox_hw.Power_rail.t ->
  from:Psbox_engine.Time.t ->
  until:Psbox_engine.Time.t ->
  Sample.t array
(** Timestamped samples of a rail over a window. *)

(** {1 Live monitoring}

    A monitor subscribes to a rail's transition bus and integrates energy
    incrementally as the rail announces power changes — O(1) state, no
    history walk, and it keeps working after the rail's timeline has been
    compacted away. *)

type monitor

val monitor : from:Psbox_engine.Time.t -> Psbox_hw.Power_rail.t -> monitor
(** Start watching a rail now. [from] is the accounting epoch; it must not
    precede the current simulation time (the monitor sees only future
    transitions). *)

val monitor_energy_j : monitor -> until:Psbox_engine.Time.t -> float
(** Energy accumulated from the epoch up to [until] (normally the current
    time), including the partially elapsed current level. *)

val monitor_transitions : monitor -> int
(** Number of power transitions observed. *)

val monitor_peak_w : monitor -> float
(** Highest rail power seen since the epoch (including the initial level). *)

val monitor_detach : monitor -> unit
(** Unsubscribe from the rail; the accumulated totals stay readable. *)
