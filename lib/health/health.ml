(* Streaming health engine: watch the live metrics registry on a
   deterministic evaluation grid, turn rule breaches into an incident
   lifecycle, and dispatch firing incidents to responders that act — the
   step from observable power to actionable power.

   Everything here is driven by the sim clock and the metric store, so a
   run's incident log is a pure function of the event history: same seed,
   same bytes. Evaluation itself is a pure observer; only responders
   (explicitly registered) change simulation behavior. *)

open Psbox_engine
module System = Psbox_kernel.System
module Power_rail = Psbox_hw.Power_rail
module Tm = Psbox_telemetry.Metrics
module Tt = Psbox_telemetry.Tracing
module Model = Psbox_model.Model
module Budget = Psbox_budget.Budget
module Audit = Psbox_audit.Audit

let health_track = "health"

(* Self-metrics: the engine watches everything else, these let everything
   else watch the engine. *)
let m_evals = Tm.counter "health.evals"
let m_pending = Tm.counter "health.incidents.pending"
let m_firing = Tm.counter "health.incidents.firing"
let m_resolved = Tm.counter "health.incidents.resolved"
let m_actions = Tm.counter "health.responder.actions"

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)

type signal =
  | Metric of string
  | Rate of string
  | Probe of string * (unit -> float option)

let signal_label = function
  | Metric n -> n
  | Rate n -> n ^ ".rate"
  | Probe (n, _) -> n

type cmp = Over | Under

type kind =
  | Threshold of {
      t_signal : signal;
      t_cmp : cmp;
      t_limit : float;
      t_for : int;
    }
  | Rate_of_change of { rc_signal : signal; rc_per_s : float; rc_for : int }
  | Absence of { a_metric : string; a_stale : int }
  | Slo_burn of {
      b_bad : string;
      b_total : string;
      b_slo : float;
      b_short : int;
      b_long : int;
      b_factor : float;
    }

type rule = { r_name : string; r_subject : string; r_kind : kind }

let rule_name r = r.r_name

let threshold ~name ?subject ?(below = false) ?(for_windows = 1) signal limit =
  if for_windows < 1 then invalid_arg "Health.threshold: for_windows < 1";
  {
    r_name = name;
    r_subject = (match subject with Some s -> s | None -> signal_label signal);
    r_kind =
      Threshold
        {
          t_signal = signal;
          t_cmp = (if below then Under else Over);
          t_limit = limit;
          t_for = for_windows;
        };
  }

let rate_of_change ~name ?subject ?(for_windows = 1) signal ~per_second =
  if for_windows < 1 then invalid_arg "Health.rate_of_change: for_windows < 1";
  if per_second <= 0.0 then
    invalid_arg "Health.rate_of_change: per_second must be positive";
  {
    r_name = name;
    r_subject = (match subject with Some s -> s | None -> signal_label signal);
    r_kind =
      Rate_of_change
        { rc_signal = signal; rc_per_s = per_second; rc_for = for_windows };
  }

let absence ~name ?subject ?(stale_windows = 4) metric =
  if stale_windows < 1 then invalid_arg "Health.absence: stale_windows < 1";
  {
    r_name = name;
    r_subject = (match subject with Some s -> s | None -> metric);
    r_kind = Absence { a_metric = metric; a_stale = stale_windows };
  }

let burn_rate ~bad ~total ~slo =
  if total <= 0.0 || slo <= 0.0 then 0.0 else bad /. total /. slo

let slo_burn ~name ?subject ~bad ~total ~slo ?(short_windows = 4)
    ?(long_windows = 16) ?(factor = 2.0) () =
  if slo <= 0.0 then invalid_arg "Health.slo_burn: slo must be positive";
  if short_windows < 1 || long_windows < short_windows then
    invalid_arg "Health.slo_burn: need 1 <= short_windows <= long_windows";
  if factor <= 0.0 then invalid_arg "Health.slo_burn: factor must be positive";
  {
    r_name = name;
    r_subject = (match subject with Some s -> s | None -> bad);
    r_kind =
      Slo_burn
        {
          b_bad = bad;
          b_total = total;
          b_slo = slo;
          b_short = short_windows;
          b_long = long_windows;
          b_factor = factor;
        };
  }

(* ------------------------------------------------------------------ *)
(* Incidents                                                           *)

type incident = {
  i_id : int;
  i_rule : string;
  i_subject : string;
  i_opened_s : float;
  mutable i_fired_s : float option;
  mutable i_resolved_s : float option;
  mutable i_peak : float;  (** worst signal value seen while open *)
  mutable i_evals : int;  (** evaluations spent open *)
}

type phase = P_ok | P_pending | P_firing

type live = {
  lv_rule : rule;
  lv_m_fired : Tm.counter;  (* health.fired.<rule> *)
  mutable lv_phase : phase;
  mutable lv_streak : int;  (* consecutive breaching evals *)
  lv_rate : Tm.rate option;  (* tracker behind a [Rate] signal *)
  mutable lv_roc_prev : (float * float) option;  (* (t_s, value) *)
  mutable lv_abs_prev : float option;  (* last value the metric showed *)
  mutable lv_abs_streak : int;  (* evals without movement *)
  lv_burn : (float * float) array;  (* (bad, total) cumulative ring *)
  mutable lv_burn_i : int;
  mutable lv_burn_n : int;
  mutable lv_incident : incident option;
}

type t = {
  h_sim : Sim.t;
  h_period : Time.span;
  h_epoch : Time.t;
  mutable h_rules : live list;  (* evaluation (= add) order *)
  mutable h_responders : (string * (incident -> unit)) list;  (* add order *)
  mutable h_incidents : incident list;  (* newest first *)
  mutable h_next_id : int;
  mutable h_tick : Sim.handle;
  h_lbl_tick : Sim.label; (* counts under sim.events.health.tick *)
  mutable h_evals : int;
  mutable h_stopped : bool;
}

let period t = t.h_period
let evals t = t.h_evals
let incidents t = List.rev t.h_incidents

let open_incidents t =
  List.filter (fun i -> i.i_resolved_s = None) (incidents t)

let incident_counts t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun i ->
      if i.i_fired_s <> None then
        Hashtbl.replace tbl i.i_rule
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl i.i_rule)))
    t.h_incidents;
  Hashtbl.fold (fun r n acc -> (r, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ---- signal reading ------------------------------------------------ *)

let read_signal lv ~now_s = function
  | Metric n -> Tm.find n
  | Rate _ -> Tm.rate_sample (Option.get lv.lv_rate) ~now_s
  | Probe (_, f) -> f ()

(* One evaluation of one rule: did the raw condition breach this eval, has
   the hysteresis margin cleared, and what value do we record as evidence.
   A missing signal is no evidence either way: it neither breaches nor
   clears, so an open incident rides out a gap in the data. *)
let judge lv ~now_s =
  match lv.lv_rule.r_kind with
  | Threshold { t_signal; t_cmp; t_limit; _ } -> (
      match read_signal lv ~now_s t_signal with
      | None -> (false, false, None)
      | Some v ->
          let breach, clear =
            match t_cmp with
            | Over -> (v > t_limit, v < 0.8 *. t_limit)
            | Under -> (v < t_limit, v > 1.2 *. t_limit)
          in
          (breach, clear, Some v))
  | Rate_of_change { rc_signal; rc_per_s; _ } -> (
      match read_signal lv ~now_s rc_signal with
      | None -> (false, false, None)
      | Some v -> (
          let prev = lv.lv_roc_prev in
          lv.lv_roc_prev <- Some (now_s, v);
          match prev with
          | Some (t0, v0) when now_s > t0 ->
              let dv = Float.abs ((v -. v0) /. (now_s -. t0)) in
              (dv > rc_per_s, dv < 0.8 *. rc_per_s, Some dv)
          | Some _ | None -> (false, false, None)))
  | Absence { a_metric; a_stale } ->
      (match Tm.find a_metric with
      | None ->
          (* never registered counts as stale *)
          lv.lv_abs_streak <- lv.lv_abs_streak + 1
      | Some v ->
          (match lv.lv_abs_prev with
          | Some p when v <> p -> lv.lv_abs_streak <- 0
          | Some _ -> lv.lv_abs_streak <- lv.lv_abs_streak + 1
          | None -> lv.lv_abs_streak <- lv.lv_abs_streak + 1);
          lv.lv_abs_prev <- Some v);
      ( lv.lv_abs_streak >= a_stale,
        lv.lv_abs_streak = 0,
        Some (float_of_int lv.lv_abs_streak) )
  | Slo_burn { b_bad; b_total; b_slo; b_short; b_long; b_factor } ->
      let bad = Option.value ~default:0.0 (Tm.find b_bad) in
      let total = Option.value ~default:0.0 (Tm.find b_total) in
      let len = Array.length lv.lv_burn in
      lv.lv_burn.(lv.lv_burn_i) <- (bad, total);
      lv.lv_burn_i <- (lv.lv_burn_i + 1) mod len;
      if lv.lv_burn_n < len then lv.lv_burn_n <- lv.lv_burn_n + 1;
      let ago k =
        (* the sample recorded k evals before this one; requires k < n *)
        let idx = ((lv.lv_burn_i - 1 - k) + (2 * len)) mod len in
        lv.lv_burn.(idx)
      in
      let burn_over k =
        let b0, t0 = ago k in
        burn_rate ~bad:(bad -. b0) ~total:(total -. t0) ~slo:b_slo
      in
      if lv.lv_burn_n <= b_long then (false, false, None)
      else begin
        let short = burn_over b_short and long = burn_over b_long in
        ( short > b_factor && long > b_factor,
          short < 0.8 *. b_factor && long < 0.8 *. b_factor,
          Some (Float.max short long) )
      end

(* ---- lifecycle ----------------------------------------------------- *)

let transition lv inc ~now_s name counter =
  Tm.incr counter;
  if Tt.recording () then
    Tt.instant ~track:health_track ~lane:lv.lv_rule.r_subject ~name
      ~args:[ ("id", float_of_int inc.i_id); ("peak", inc.i_peak) ]
      (Time.of_sec_f now_s)

let dispatch t lv inc =
  List.iter
    (fun (rule, fn) ->
      if rule = lv.lv_rule.r_name then begin
        Tm.incr m_actions;
        fn inc
      end)
    t.h_responders

let for_windows_of = function
  | Threshold { t_for; _ } -> t_for
  | Rate_of_change { rc_for; _ } -> rc_for
  | Absence _ | Slo_burn _ -> 1

let maybe_fire t lv ~now_s =
  if lv.lv_streak >= for_windows_of lv.lv_rule.r_kind then begin
    let inc = Option.get lv.lv_incident in
    lv.lv_phase <- P_firing;
    inc.i_fired_s <- Some now_s;
    Tm.incr lv.lv_m_fired;
    transition lv inc ~now_s "firing" m_firing;
    dispatch t lv inc
  end

let resolve lv ~now_s =
  let inc = Option.get lv.lv_incident in
  inc.i_resolved_s <- Some now_s;
  transition lv inc ~now_s "resolved" m_resolved;
  lv.lv_incident <- None;
  lv.lv_phase <- P_ok;
  lv.lv_streak <- 0

let eval_rule t lv ~now_s =
  let breach, clear, value = judge lv ~now_s in
  (match lv.lv_incident with
  | Some inc ->
      inc.i_evals <- inc.i_evals + 1;
      (match value with
      | Some v when v > inc.i_peak -> inc.i_peak <- v
      | Some _ | None -> ())
  | None -> ());
  match lv.lv_phase with
  | P_ok ->
      if breach then begin
        let inc =
          {
            i_id = t.h_next_id;
            i_rule = lv.lv_rule.r_name;
            i_subject = lv.lv_rule.r_subject;
            i_opened_s = now_s;
            i_fired_s = None;
            i_resolved_s = None;
            i_peak = Option.value ~default:0.0 value;
            i_evals = 1;
          }
        in
        t.h_next_id <- t.h_next_id + 1;
        t.h_incidents <- inc :: t.h_incidents;
        lv.lv_incident <- Some inc;
        lv.lv_phase <- P_pending;
        lv.lv_streak <- 1;
        transition lv inc ~now_s "pending" m_pending;
        maybe_fire t lv ~now_s
      end
  | P_pending ->
      if breach then begin
        lv.lv_streak <- lv.lv_streak + 1;
        maybe_fire t lv ~now_s
      end
      else resolve lv ~now_s
  | P_firing -> if clear then resolve lv ~now_s

let eval_now t =
  t.h_evals <- t.h_evals + 1;
  Tm.incr m_evals;
  let now_s = Time.to_sec_f (Sim.now t.h_sim) in
  List.iter (fun lv -> eval_rule t lv ~now_s) t.h_rules

(* ---- the evaluation grid ------------------------------------------- *)

(* Same demand-armed pattern as Budget's control tick: evaluations land on
   the fixed grid [epoch + k*period], and the engine schedules exactly one
   pending event — none at all while it has no rules. Skipped periods
   would have evaluated an empty rule list, so they are exact no-ops. *)
let tick_needed t = (not t.h_stopped) && t.h_rules <> []

let rec arm_tick t =
  if Sim.is_none t.h_tick && tick_needed t then begin
    let k = ((Sim.now t.h_sim - t.h_epoch) / t.h_period) + 1 in
    t.h_tick <-
      Sim.schedule_at t.h_sim ~label:t.h_lbl_tick
        (t.h_epoch + (k * t.h_period))
        (fun () -> tick_fired t)
  end

and tick_fired t =
  t.h_tick <- Sim.none;
  if not t.h_stopped then begin
    eval_now t;
    arm_tick t
  end

let create sim ?(period = Time.ms 50) () =
  if period <= 0 then invalid_arg "Health.create: period must be positive";
  {
    h_sim = sim;
    h_period = period;
    h_epoch = Sim.now sim;
    h_rules = [];
    h_responders = [];
    h_incidents = [];
    h_next_id = 1;
    h_tick = Sim.none;
    h_lbl_tick = Sim.label "health.tick";
    h_evals = 0;
    h_stopped = false;
  }

let add_rule t r =
  if t.h_stopped then invalid_arg "Health.add_rule: engine stopped";
  let needs_rate =
    match r.r_kind with
    | Threshold { t_signal = Rate n; _ } | Rate_of_change { rc_signal = Rate n; _ }
      ->
        Some (Tm.rate n)
    | _ -> None
  in
  let burn_len =
    match r.r_kind with Slo_burn { b_long; _ } -> b_long + 1 | _ -> 1
  in
  let lv =
    {
      lv_rule = r;
      lv_m_fired = Tm.counter ("health.fired." ^ r.r_name);
      lv_phase = P_ok;
      lv_streak = 0;
      lv_rate = needs_rate;
      lv_roc_prev = None;
      lv_abs_prev = None;
      lv_abs_streak = 0;
      lv_burn = Array.make burn_len (0.0, 0.0);
      lv_burn_i = 0;
      lv_burn_n = 0;
      lv_incident = None;
    }
  in
  t.h_rules <- t.h_rules @ [ lv ];
  arm_tick t

let add_rules t rs = List.iter (add_rule t) rs
let rules t = List.map (fun lv -> lv.lv_rule) t.h_rules

let on_firing t ~rule fn = t.h_responders <- t.h_responders @ [ (rule, fn) ]

let stop t =
  if not t.h_stopped then begin
    t.h_stopped <- true;
    Sim.cancel t.h_sim t.h_tick;
    t.h_tick <- Sim.none
  end

(* ---- incident-log JSON --------------------------------------------- *)

let json t =
  let b = Buffer.create 1024 in
  let opt_s = function
    | None -> "null"
    | Some s -> Printf.sprintf "%.6f" s
  in
  Buffer.add_string b "{\n";
  Printf.bprintf b "  \"period_ms\": %.3f,\n"
    (Time.to_sec_f t.h_period *. 1000.0);
  Printf.bprintf b "  \"evals\": %d,\n" t.h_evals;
  Printf.bprintf b "  \"rules\": %d,\n" (List.length t.h_rules);
  Buffer.add_string b "  \"incidents\": [\n";
  let incs = incidents t in
  let n = List.length incs in
  List.iteri
    (fun k i ->
      Printf.bprintf b
        "    { \"id\": %d, \"rule\": \"%s\", \"subject\": \"%s\", \
         \"opened_s\": %.6f, \"fired_s\": %s, \"resolved_s\": %s, \"peak\": \
         %.6f, \"evals\": %d }%s\n"
        i.i_id i.i_rule i.i_subject i.i_opened_s (opt_s i.i_fired_s)
        (opt_s i.i_resolved_s) i.i_peak i.i_evals
        (if k = n - 1 then "" else ","))
    incs;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b "  \"fired\": { ";
  let counts = incident_counts t in
  List.iteri
    (fun k (r, c) ->
      Printf.bprintf b "\"%s\": %d%s" r c
        (if k = List.length counts - 1 then "" else ", "))
    counts;
  Buffer.add_string b " }\n";
  Buffer.add_string b "}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Default rule pack                                                   *)

let default_pack ?(drift_threshold_pct = 5.0) ?(drift_for_windows = 8)
    ?(cap_slo = 0.05) ?(cap_factor = 2.0) sys =
  let rails = List.map Power_rail.name (System.rails sys) in
  let drift =
    List.map
      (fun r ->
        threshold ~name:"model.drift" ~subject:r
          ~for_windows:drift_for_windows
          (Metric (Printf.sprintf "model.rail.%s.mape_pct" r))
          drift_threshold_pct)
      rails
  in
  let cap =
    slo_burn ~name:"cap.violation" ~subject:"budget"
      ~bad:"budget.cap_violations" ~total:"budget.ticks" ~slo:cap_slo
      ~factor:cap_factor ()
  in
  let dead = absence ~name:"telemetry.dead" ~subject:"sim" "sim.events_fired" in
  let conservation =
    match Audit.lookup sys with
    | None -> []
    | Some a ->
        [
          threshold ~name:"audit.conservation" ~subject:"audit"
            (Probe
               ( "audit.mismatch_j",
                 fun () ->
                   Some
                     (List.fold_left
                        (fun acc rail ->
                          let lhs = Audit.rail_total a ~rail in
                          let rhs = System.rail_energy_j sys ~name:rail in
                          Float.max acc (Float.abs (lhs -. rhs)))
                        0.0 (Audit.rails a)) ))
            1e-9;
        ]
  in
  drift @ [ cap; dead ] @ conservation

(* ------------------------------------------------------------------ *)
(* Shipped responders                                                  *)

module Responder = struct
  let tighten_budget ?factor ctl ~app (_ : incident) =
    Budget.tighten ?factor ctl ~app

  let recalibrate ~recorder ~estimator ?(seed = 77) ?(rounds = 12)
      ?(samples = 48) ?(margin = 0.3) () (inc : incident) =
    let rail = inc.i_subject in
    match Model.Estimator.model estimator ~rail with
    | None -> ()
    | Some current -> (
        let traces = Model.Recorder.current recorder in
        match
          List.find_opt (fun tr -> tr.Model.Trace.tr_rail = rail) traces
        with
        | None -> ()
        | Some tr when tr.Model.Trace.tr_windows = [] -> ()
        | Some tr ->
            let m, _rmse =
              Model.Calibrate.calibrate_trace ~seed:(seed + inc.i_id) ~rounds
                ~samples ~around:current ~margin tr
            in
            ignore (Model.Estimator.swap_model estimator m : bool))
end

(* ------------------------------------------------------------------ *)
(* Self-healing estimation check                                       *)

module Self_heal = struct
  type rail_heal = {
    rh_rail : string;
    rh_pre_mape_pct : float;
    rh_post_mape_pct : float;
    rh_fired_s : float option;
    rh_swapped : bool;
  }

  type report = {
    sh_fit_seed : int;
    sh_val_seed : int;
    sh_window_ms : float;
    sh_windows : int;
    sh_perturb_pct : float;
    sh_drift_threshold_pct : float;
    sh_rails : rail_heal list;
    sh_incidents_fired : int;
    sh_swaps : int;
    sh_post_max_mape_pct : float;
  }

  let sub_trace_after (tr : Model.Trace.t) t_s =
    {
      tr with
      Model.Trace.tr_windows =
        List.filter
          (fun (w : Model.Trace.window) -> w.Model.Trace.w_t_s > t_s)
          tr.Model.Trace.tr_windows;
    }

  let run ?(fit_seed = 11) ?(val_seed = 23) ?(window = Time.ms 50)
      ?(windows = 60) ?(perturb_pct = 0.0) ?(drift_threshold_pct = 5.0)
      ?(drift_for_windows = 8) ?(calib_seed = 77) ?(calib_rounds = 12)
      ?(calib_samples = 48) () =
    if windows <= 0 then
      invalid_arg "Health.Self_heal.run: windows must be positive";
    (* reference run: record and fit the ground-truth models, then inject
       the drift by perturbing every coefficient *)
    let sys = Model.Check.scenario_sys ~seed:fit_seed in
    ignore (Model.Check.install_workload sys);
    System.start sys;
    let rc = Model.Recorder.start sys ~window () in
    System.run_for sys (window * windows);
    let fit_traces = Model.Recorder.stop rc in
    System.shutdown sys;
    let models =
      List.map
        (fun tr ->
          Model.Fit.perturb (Model.Fit.fit ~kind:Model.Fit.Per_opp tr)
            perturb_pct)
        fit_traces
    in
    (* validation run: live estimator under the drifted models, the default
       rule pack watching its mape gauges, and the recalibration responder
       closing the loop *)
    let sys = Model.Check.scenario_sys ~seed:val_seed in
    ignore (Model.Check.install_workload sys);
    System.start sys;
    let rc = Model.Recorder.start sys ~window () in
    let est = Model.Estimator.start sys ~models ~window ~drift_threshold_pct () in
    let eng = create (System.sim sys) ~period:window () in
    add_rules eng
      (default_pack ~drift_threshold_pct ~drift_for_windows sys);
    on_firing eng ~rule:"model.drift"
      (Responder.recalibrate ~recorder:rc ~estimator:est ~seed:calib_seed
         ~rounds:calib_rounds ~samples:calib_samples ());
    System.run_for sys (window * windows);
    let val_traces = Model.Recorder.stop rc in
    Model.Estimator.stop est;
    stop eng;
    System.shutdown sys;
    let fired_at rail =
      List.find_map
        (fun i ->
          if i.i_rule = "model.drift" && i.i_subject = rail then i.i_fired_s
          else None)
        (incidents eng)
    in
    let sh_rails =
      List.map
        (fun (tr : Model.Trace.t) ->
          let rail = tr.Model.Trace.tr_rail in
          let drifted =
            List.find (fun m -> m.Model.Fit.f_rail = rail) models
          in
          let pre = (Model.Fit.validate drifted tr).Model.Fit.e_mape_pct in
          let live_model = Model.Estimator.model est ~rail in
          let swapped =
            match live_model with
            | Some m -> m != drifted
            | None -> false
          in
          let post =
            match (live_model, fired_at rail) with
            | Some m, Some t_s ->
                (Model.Fit.validate m (sub_trace_after tr t_s))
                  .Model.Fit.e_mape_pct
            | Some m, None -> (Model.Fit.validate m tr).Model.Fit.e_mape_pct
            | None, _ -> pre
          in
          {
            rh_rail = rail;
            rh_pre_mape_pct = pre;
            rh_post_mape_pct = post;
            rh_fired_s = fired_at rail;
            rh_swapped = swapped;
          })
        val_traces
    in
    let report =
      {
        sh_fit_seed = fit_seed;
        sh_val_seed = val_seed;
        sh_window_ms = Time.to_sec_f window *. 1000.0;
        sh_windows = windows;
        sh_perturb_pct = perturb_pct;
        sh_drift_threshold_pct = drift_threshold_pct;
        sh_rails;
        sh_incidents_fired =
          List.fold_left (fun acc (_, n) -> acc + n) 0 (incident_counts eng);
        sh_swaps = Model.Estimator.swaps est;
        sh_post_max_mape_pct =
          List.fold_left
            (fun acc r -> Float.max acc r.rh_post_mape_pct)
            0.0 sh_rails;
      }
    in
    (report, eng)

  let json r =
    let b = Buffer.create 1024 in
    Buffer.add_string b "{\n";
    Printf.bprintf b "  \"fit_seed\": %d,\n" r.sh_fit_seed;
    Printf.bprintf b "  \"val_seed\": %d,\n" r.sh_val_seed;
    Printf.bprintf b "  \"window_ms\": %.3f,\n" r.sh_window_ms;
    Printf.bprintf b "  \"windows\": %d,\n" r.sh_windows;
    Printf.bprintf b "  \"perturb_pct\": %.6f,\n" r.sh_perturb_pct;
    Printf.bprintf b "  \"drift_threshold_pct\": %.6f,\n"
      r.sh_drift_threshold_pct;
    Buffer.add_string b "  \"rails\": [\n";
    let n = List.length r.sh_rails in
    List.iteri
      (fun k rh ->
        Printf.bprintf b
          "    { \"name\": \"%s\", \"pre_mape_pct\": %.6f, \"post_mape_pct\": \
           %.6f, \"fired_s\": %s, \"swapped\": %b }%s\n"
          rh.rh_rail rh.rh_pre_mape_pct rh.rh_post_mape_pct
          (match rh.rh_fired_s with
          | None -> "null"
          | Some s -> Printf.sprintf "%.6f" s)
          rh.rh_swapped
          (if k = n - 1 then "" else ","))
      r.sh_rails;
    Buffer.add_string b "  ],\n";
    Printf.bprintf b "  \"incidents_fired\": %d,\n" r.sh_incidents_fired;
    Printf.bprintf b "  \"swaps\": %d,\n" r.sh_swaps;
    Printf.bprintf b "  \"post_max_mape_pct\": %.6f\n" r.sh_post_max_mape_pct;
    Buffer.add_string b "}\n";
    Buffer.contents b
end
