(** Counter-driven power models.

    Real power-aware systems rarely get to measure per-rail power directly;
    they estimate it from power-state residency counters (per-OPP busy time,
    suspend residency, airtime). This library closes that loop inside the
    simulator: {!Recorder} captures windowed counter/joule traces from a live
    machine, {!Fit} learns per-rail linear or per-OPP models by least
    squares, {!Estimator} publishes live model estimates plus residual
    telemetry and raises drift alarms when the model and the energy ledger
    part ways, {!Calibrate} recovers hardware parameters by deterministic
    random search, and {!Check} packages a fit-on-seed-A /
    validate-on-seed-B cross-check with deterministic JSON output.

    Every component is a pure observer: attaching one never changes a
    simulation decision, so experiment outputs stay byte-identical with the
    estimator enabled. *)

module System = Psbox_kernel.System

(** {1 Traces} *)

module Trace : sig
  type window = {
    w_t_s : float;  (** window end, seconds since sim start *)
    w_feat : float array;  (** per-feature residency deltas; [0] is dt_s *)
    w_j : float;  (** ledger joules drawn in the window *)
  }

  type t = {
    tr_rail : string;
    tr_names : string array;  (** per-OPP feature names, [0] = ["dt_s"] *)
    tr_linear_names : string array;  (** collapsed (aggregate) schema *)
    tr_linear_map : int array;  (** per-OPP index -> collapsed index *)
    tr_windows : window list;  (** oldest first *)
  }
end

(** {1 Offline fitting} *)

module Fit : sig
  type kind =
    | Linear  (** aggregate features (busy time regardless of OPP) *)
    | Per_opp  (** per-OPP residency features — exact for this hardware *)

  type fitted = {
    f_rail : string;
    f_kind : kind;
    f_names : string array;
    f_coeffs : float array;  (** watts per unit of each feature *)
  }

  val lstsq : ?ridge:float -> (float array * float) list -> float array
  (** Least squares without intercept over [(features, target)] rows, with
      a tiny ridge (default [1e-9]) so all-zero columns (an OPP never
      visited) solve to ~0 instead of failing. *)

  val fit : ?ridge:float -> kind:kind -> Trace.t -> fitted

  type errors = {
    e_mape_pct : float;  (** mean absolute percentage error per window *)
    e_rmse_w : float;  (** RMSE of the implied mean power per window *)
    e_max_ape_pct : float;
  }

  val validate : fitted -> Trace.t -> errors
  (** Evaluate a model on a (held-out) trace. *)

  val perturb : fitted -> float -> fitted
  (** Scale every coefficient by [1 + pct/100] — an injected model error
      for drift-alarm and sensitivity tests. *)
end

(** {1 Recording traces from a live machine} *)

module Recorder : sig
  type t

  val start : System.t -> ?window:Psbox_engine.Time.span -> unit -> t
  (** Attach residency samplers to every rail of [sys] and snapshot
      (features, ledger joules) every [window] (default 50 ms). Pure
      observer. *)

  val current : t -> Trace.t list
  (** The windows recorded so far, one trace per rail, without detaching —
      the recorder keeps accumulating. This is what an online responder
      reads to recalibrate mid-run. *)

  val stop : t -> Trace.t list
  (** Detach and return one trace per rail. Idempotent. *)
end

(** {1 Online estimation and drift detection} *)

module Estimator : sig
  type t

  val start :
    System.t ->
    models:Fit.fitted list ->
    ?window:Psbox_engine.Time.span ->
    ?mape_window:int ->
    ?drift_threshold_pct:float ->
    unit ->
    t
  (** Every [window] (default 50 ms), predict each modelled rail's window
      energy from its counters and publish:
      [model.rail.<r>.est_w] (gauge), [model.rail.<r>.mape_pct] (gauge,
      mean over the last [mape_window] windows, default 8) and
      [model.rail.<r>.resid_pct] (histogram of per-window absolute
      percentage error). When a rail's windowed MAPE exceeds
      [drift_threshold_pct] (default 5) the estimator raises one alarm for
      the whole excursion — [model.drift.alarms] counter plus a trace
      instant on the ["model"] track — and re-arms only after the MAPE
      falls below 80% of the threshold. Rails without a model in [models]
      are left unobserved. *)

  val stop : t -> unit

  val alarms : t -> int
  (** Drift alarms raised by this estimator so far. *)

  val ticks : t -> int

  val swaps : t -> int
  (** Model hot-swaps performed on this estimator so far. *)

  val model : t -> rail:string -> Fit.fitted option
  (** The model currently estimating [rail]. *)

  val swap_model : t -> Fit.fitted -> bool
  (** Hot-swap the model for the rail named by [f_rail]: the MAPE window
      and drift latch restart from scratch (so [mape_pct] reflects only
      the new model) while the residency cursors carry over. Counts under
      [model.swaps] and emits a ["swap"] trace instant. [false] if the
      estimator observes no such rail. *)

  val app_est_w : t -> app:int -> float option
  (** Modeled mean draw attributed to [app] since the estimator started:
      the app's split-attributed joules scaled by the model's cumulative
      modeled/ledger energy ratio. [None] until the first window settles.
      This is the admission-control cross-check signal
      ({!Psbox_budget.Budget.set_admission_estimate}). *)
end

(** {1 Calibration of hardware parameters} *)

module Calibrate : sig
  type dim = { d_name : string; d_lo : float; d_hi : float }

  val search :
    seed:int ->
    ?rounds:int ->
    ?samples:int ->
    dims:dim list ->
    objective:(float array -> float) ->
    unit ->
    float array * float
  (** Deterministic shrinking-radius random search: round [r] draws
      [samples] candidates around the incumbent from
      [Rng.derive ~seed r], radius [0.7^r] of each dimension's box.
      Returns the best parameter vector and its objective value. Pure in
      [(seed, rounds, samples, dims, objective)]. *)

  val calibrate_trace :
    ?kind:Fit.kind ->
    seed:int ->
    ?rounds:int ->
    ?samples:int ->
    ?around:Fit.fitted ->
    ?margin:float ->
    Trace.t ->
    Fit.fitted * float
  (** Recover a rail's power parameters from a reference trace by
      searching coefficient space directly (the coefficients {e are} the
      hardware parameters: the ["dt_s"] coefficient is the idle floor,
      ["busy@<f>mhz_s"] the per-OPP active watts, ...). Returns the
      calibrated model and its RMSE in watts.

      With [around], the box is centered on an incumbent model's
      coefficients with half-width [max (margin * |c|) 0.05] per dimension
      (default [margin] 0.3) — the online-recalibration mode: a drifted
      model is wrong but not arbitrary, and the tight box makes the
      search converge where the blind full-range box would not. *)
end

(** {1 model-check: fit/validate cross-check} *)

module Check : sig
  type rail_report = {
    rr_rail : string;
    rr_mape_pct : float;  (** per-OPP model, held-out seed *)
    rr_rmse_w : float;
    rr_max_ape_pct : float;
    rr_linear_mape_pct : float;  (** aggregate-model baseline *)
    rr_coeffs : (string * float) list;
  }

  type report = {
    c_fit_seed : int;
    c_val_seed : int;
    c_window_ms : float;
    c_windows : int;
    c_perturb_pct : float;
    c_drift_threshold_pct : float;
    c_rails : rail_report list;
    c_max_mape_pct : float;  (** worst per-OPP rail MAPE *)
    c_drift_alarms : int;
  }

  val scenario_sys : seed:int -> System.t
  (** The reference machine: 2 cores, GPU, WiFi. *)

  val install_workload : System.t -> int * int
  (** Install the phased mixed + bursty apps (returns their app ids). The
      phases sweep DVFS OPPs, GPU autosuspend, NIC TX levels and the RX
      path so every residency feature carries signal. *)

  val run :
    ?fit_seed:int ->
    ?val_seed:int ->
    ?window:Psbox_engine.Time.span ->
    ?windows:int ->
    ?perturb_pct:float ->
    ?drift_threshold_pct:float ->
    unit ->
    report
  (** Record the scenario under [fit_seed], fit per-OPP and linear models,
      optionally perturb them by [perturb_pct], then validate offline and
      online (estimator + drift detection) on a fresh [val_seed] run. *)

  val json : report -> string
  (** Deterministic JSON (fixed field order, fixed precision). *)
end
