(** Power-budget control plane (§6 "power-centric resource management").

    The paper's sandboxed accounting makes per-app draw a trustworthy
    signal; this module closes the loop on it. A controller subscribes to
    the machine's attributed power — via the auto-wired
    {!Psbox_accounting.Split.live_cpu}/[live_accel]/[live_net] splitters —
    and enforces per-app {e caps} (watts) or {e envelopes} (joules over a
    horizon) by actuating every subsystem the app draws through:

    - CPU: a CFS-bandwidth-style runtime quota
      ({!Psbox_kernel.Smp.set_quota}),
    - accelerators: a leaky-bucket command-submission rate
      ({!Psbox_kernel.Accel_driver.set_rate}),
    - network: a TX byte rate ({!Psbox_kernel.Net_sched.set_rate}),
    - optionally the DVFS ceiling ({!Psbox_hw.Dvfs.set_ceiling}) when
      per-app throttling alone cannot reach a cap.

    The control law is a deterministic, sim-clock-periodic
    multiplicative-proportional loop with a hysteresis deadband: each
    period the app's windowed mean draw is compared against its effective
    cap; overshoot scales one throttle level (in [0.02, 1.0]) down by the
    overshoot ratio, comfortable undershoot relaxes it back up by 25%.
    At a throttle of 1.0 every knob is released ([None]), so a machine
    with no budgets configured replays the exact event sequence it would
    without a controller.

    Admission control ({!admit}) tracks declared demand against an
    optional machine budget, with a strict-FIFO wait queue drained
    head-first on {!release}. *)

type t

type demand =
  | Cap of float  (** steady-state limit, watts *)
  | Envelope of { joules : float; horizon : Psbox_engine.Time.span }
      (** energy allowance over a horizon; the effective cap each period
          is [remaining_joules / remaining_horizon], so an app that burns
          early is squeezed harder later — graceful degradation, not a
          cliff *)

type admission = Admitted | Queued | Rejected

val create :
  Psbox_kernel.System.t ->
  ?period:Psbox_engine.Time.span ->
  ?window_periods:int ->
  ?hysteresis:float ->
  ?dvfs_bias:bool ->
  ?machine_budget_w:float ->
  unit ->
  t
(** Attach a controller to a machine. Defaults: 50 ms control period, a
    4-period measurement window, 5% hysteresis band, no DVFS biasing, no
    machine budget (admission always admits). Splitters are wired to
    whatever rails the machine has; the control tick is armed immediately
    on the machine's simulator. *)

val period : t -> Psbox_engine.Time.span

val set_cap : t -> app:int -> watts:float -> unit
(** Cap [app]'s windowed mean attributed draw at [watts]. Takes effect at
    the next control tick. *)

val set_envelope :
  t -> app:int -> joules:float -> horizon:Psbox_engine.Time.span -> unit
(** Give [app] an energy allowance of [joules] over [horizon] starting
    now. After the horizon expires the effective cap is 0 (throttle
    floor). *)

val tighten : ?factor:float -> t -> app:int -> unit
(** Ratchet [app]'s demand down one step: a finite {!Cap} becomes
    [watts *. factor], an {!Envelope}'s remaining allowance becomes
    [joules *. factor] (horizon unchanged). Default [factor] is [0.9].
    No-op on an unbudgeted app or an [infinity] cap — there is nothing
    to ratchet. This is the knob health responders pull on sustained
    cap-violation incidents. @raise Invalid_argument unless
    [factor] is in (0, 1). *)

val clear : t -> app:int -> unit
(** Drop [app]'s budget and release all of its actuators. *)

val measured_w : t -> app:int -> float
(** [app]'s windowed mean attributed draw, watts (0 before the first
    control tick, or if the app has no budget). *)

val effective_cap_w : t -> app:int -> float
(** The cap the controller is currently steering to: the configured watts
    for a {!Cap}, the remaining-joules rate for an {!Envelope}, [infinity]
    for an unbudgeted app. *)

val throttle : t -> app:int -> float
(** Current actuation level in [0.02, 1.0]; 1.0 means unthrottled. *)

val history : t -> app:int -> (Psbox_engine.Time.t * float * float) list
(** Per-tick trace [(time, measured_w, effective_cap_w)] in time order —
    the convergence record the [budget] experiment plots. *)

val stop : t -> unit
(** Cancel the control tick, release every actuator and detach the
    splitters. Idempotent. *)

(** {1 Admission control}

    Declared-demand bookkeeping against an optional machine budget.
    Reservations are watts promised, not watts measured; the control loop
    above enforces that promises hold. *)

val set_admission_estimate : t -> (int -> float option) option -> unit
(** Wire in a modeled-draw oracle (typically
    [Psbox_model.Model.Estimator.app_est_w]): while set, each reservation
    is charged [min declared (oracle app)] watts against the machine
    budget instead of the bare declaration — admission against modeled
    history, not claims. The declaration stays recorded as the contract;
    the gap is published as the [budget.admission.overdeclared_w] gauge.
    An oracle returning [None] (no history yet) falls back to the
    declared watts. Queued requests are re-priced when the drain
    re-examines them. *)

val remaining_w : t -> float
(** Machine budget minus all effective reservations; [infinity] when no
    budget is set. *)

val admit :
  t ->
  app:int ->
  watts:float ->
  ?on_admit:(unit -> unit) ->
  ?queue:bool ->
  unit ->
  admission
(** Reserve [watts] for [app]. Fits the remaining budget → [Admitted]
    (reservation recorded; [on_admit] is {e not} called — the caller is
    already running). Doesn't fit and [queue] (default false) → [Queued]:
    the request waits in FIFO order and [on_admit] fires when a later
    {!release} makes room. Otherwise [Rejected].
    @raise Invalid_argument if [app] already holds a reservation. *)

val release : t -> app:int -> unit
(** Drop [app]'s reservation and drain the wait queue head-first: queued
    requests are admitted in arrival order, stopping at the first one
    that still doesn't fit (no sneaking past a large waiter). *)

val admitted : t -> app:int -> bool

val reservation : t -> app:int -> (float * float) option
(** [app]'s current reservation as [(declared_w, effective_w)], if any.
    The two differ only when an admission estimate is wired in and the
    modeled draw undercuts the declaration. *)

val queued : t -> int
(** Requests currently waiting. *)
