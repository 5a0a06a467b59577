open Psbox_engine
module System = Psbox_kernel.System
module Smp = Psbox_kernel.Smp
module Accel_driver = Psbox_kernel.Accel_driver
module Net_sched = Psbox_kernel.Net_sched
module Split = Psbox_accounting.Split
module Tm = Psbox_telemetry.Metrics
module Tt = Psbox_telemetry.Tracing

let budget_track = "budget"
let m_ticks = Tm.counter "budget.ticks"

(* Machine-wide cap-violation count: one per (entry, tick) whose windowed
   mean overshoots its effective cap by >5% — the "bad events" numerator
   the health engine's SLO burn-rate rules consume (budget.ticks being the
   denominator). *)
let m_violations = Tm.counter "budget.cap_violations"

(* pre-resolved: control ticks are one-shot events, re-armed on demand *)
let l_tick = Sim.label "budget.tick" (* counts under sim.events.budget.tick *)

type demand =
  | Cap of float
  | Envelope of { joules : float; horizon : Time.span }

type admission = Admitted | Queued | Rejected

(* Throttle floor: even a hopeless cap (below the app's attributed idle
   share) leaves the app a sliver of every period, so it degrades
   gracefully instead of starving. *)
let throttle_floor = 0.02

type entry = {
  e_app : int;
  mutable e_demand : demand;
  mutable e_env_set_t : Time.t; (* when the envelope started *)
  mutable e_env_base_j : float; (* app's attributed joules at that point *)
  mutable e_throttle : float; (* multiplicative actuation level, floor..1 *)
  mutable e_prev_j : float; (* attributed joules at last control tick *)
  e_ring : float array; (* per-period joules, circular *)
  mutable e_ring_i : int;
  mutable e_ring_n : int;
  mutable e_history : (Time.t * float * float) list;
      (* (tick time, windowed mean W, effective cap W), newest first *)
  (* telemetry handles (per app, resolved once) *)
  e_lane : string; (* "app<id>" *)
  e_g_throttle : Tm.gauge; (* budget.app<id>.throttle_level *)
  e_g_measured : Tm.gauge; (* budget.app<id>.measured_w *)
  e_c_viol : Tm.counter; (* budget.app<id>.violations *)
}

type t = {
  sys : System.t;
  period : Time.span;
  window_periods : int;
  hysteresis : float;
  dvfs_bias : bool;
  entries : (int, entry) Hashtbl.t;
  splitters : Split.live list; (* one per actuated rail, auto-wired *)
  epoch : Time.t; (* anchor of the control-period grid (creation time) *)
  mutable tick : Sim.handle; (* armed control tick; Sim.none while idle *)
  mutable stopped : bool;
  (* admission *)
  mutable machine_budget_w : float option;
  reserved : (int, float * float) Hashtbl.t;
      (* app -> (declared watts, effective watts charged to the budget) *)
  wait_q : (int * float * (unit -> unit)) Queue.t; (* FIFO, head next *)
  mutable admission_estimate : (int -> float option) option;
      (* modeled-draw oracle (e.g. Model.Estimator.app_est_w): when set,
         reservations are charged min(declared, modeled) — declared watts
         stay the contract, modeled history the price *)
}

let m_overdeclared = Tm.gauge "budget.admission.overdeclared_w"

let sim ctl = System.sim ctl.sys
let now ctl = Sim.now (sim ctl)

(* ------------------------------------------------------------------ *)
(* Measurement: per-app attributed draw, summed over the machine's
   actuated rails via the auto-wired live splitters.                    *)

let app_total_j ctl ~app =
  let until = now ctl in
  List.fold_left
    (fun acc lv ->
      match List.assoc_opt app (Split.live_read lv ~until) with
      | Some j -> acc +. j
      | None -> acc)
    0.0 ctl.splitters

let windowed_mean_w ctl e =
  let n = e.e_ring_n in
  if n = 0 then 0.0
  else begin
    let j = ref 0.0 in
    for i = 0 to n - 1 do
      j := !j +. e.e_ring.(i)
    done;
    !j /. (float_of_int n *. Time.to_sec_f ctl.period)
  end

let effective_cap_of ctl e =
  match e.e_demand with
  | Cap w -> w
  | Envelope { joules; horizon } ->
      let used = app_total_j ctl ~app:e.e_app -. e.e_env_base_j in
      let left_j = Float.max 0.0 (joules -. used) in
      let left_s =
        Time.to_sec_f (e.e_env_set_t + horizon - now ctl)
      in
      if left_s <= 0.0 then 0.0 else left_j /. left_s

(* ------------------------------------------------------------------ *)
(* Actuation: one throttle level per app, mapped onto every subsystem's
   knob. At 1.0 all knobs are released, so an un-throttled machine runs
   the exact event sequence it would without a controller.              *)

let actuate ctl e =
  let t_ = e.e_throttle in
  let full = t_ >= 0.999 in
  let smp = System.smp ctl.sys in
  Smp.set_quota smp ~app:e.e_app
    (if full then None
     else Some (t_ *. float_of_int (Smp.cores smp)));
  let accel_rate d =
    let units = Psbox_hw.Accel.units (Accel_driver.device d) in
    if full then Accel_driver.set_rate d ~app:e.e_app None
    else Accel_driver.set_rate d ~app:e.e_app (Some (t_ *. float_of_int units))
  in
  if System.has_gpu ctl.sys then accel_rate (System.gpu ctl.sys);
  if System.has_dsp ctl.sys then accel_rate (System.dsp ctl.sys);
  if System.has_wifi ctl.sys then begin
    let net = System.net ctl.sys in
    if full then Net_sched.set_rate net ~app:e.e_app None
    else
      Net_sched.set_rate net ~app:e.e_app
        (Some (t_ *. Psbox_hw.Wifi.rate_bps (Net_sched.nic net) /. 8.0))
  end

let release_actuation ctl app =
  let smp = System.smp ctl.sys in
  Smp.set_quota smp ~app None;
  if System.has_gpu ctl.sys then
    Accel_driver.set_rate (System.gpu ctl.sys) ~app None;
  if System.has_dsp ctl.sys then
    Accel_driver.set_rate (System.dsp ctl.sys) ~app None;
  if System.has_wifi ctl.sys then
    Net_sched.set_rate (System.net ctl.sys) ~app None

(* ------------------------------------------------------------------ *)
(* Control loop                                                         *)

let control_entry ctl e =
  (* settle this period's attributed energy into the window *)
  let total = app_total_j ctl ~app:e.e_app in
  let period_j = Float.max 0.0 (total -. e.e_prev_j) in
  e.e_prev_j <- total;
  e.e_ring.(e.e_ring_i) <- period_j;
  e.e_ring_i <- (e.e_ring_i + 1) mod Array.length e.e_ring;
  if e.e_ring_n < Array.length e.e_ring then e.e_ring_n <- e.e_ring_n + 1;
  let meas = windowed_mean_w ctl e in
  let cap = effective_cap_of ctl e in
  e.e_history <- (now ctl, meas, cap) :: e.e_history;
  Tm.set e.e_g_measured meas;
  (* the fleet layer's violation criterion, counted live so SLO burn-rate
     rules can watch it stream *)
  if Float.is_finite cap && meas > cap *. 1.05 then begin
    Tm.incr m_violations;
    Tm.incr e.e_c_viol
  end;
  if Tt.recording () then
    Tt.span ~track:budget_track ~lane:e.e_lane ~name:"control"
      ~args:
        [
          ("measured_w", meas);
          ("cap_w", (if Float.is_finite cap then cap else -1.0));
          ("throttle", e.e_throttle);
        ]
      ~start:(max 0 (now ctl - ctl.period))
      ~stop:(now ctl) ();
  (* multiplicative-proportional law with a deadband, steered by the
     {e last period's} draw (the windowed mean above is what we report and
     judge convergence on, but steering on it adds 'window' periods of
     lag and turns the loop into a limit cycle): over the cap, scale the
     throttle down by the overshoot ratio (at most halving per period);
     under it, relax back up by the same ratio (at most 10% per period).
     Inside the hysteresis band the throttle holds. *)
  let meas_p = period_j /. Time.to_sec_f ctl.period in
  let over = cap *. (1.0 +. ctl.hysteresis) in
  let under = cap *. (1.0 -. ctl.hysteresis) in
  let t0 = e.e_throttle in
  if meas_p > over && meas_p > 0.0 then
    e.e_throttle <-
      Float.max throttle_floor (t0 *. Float.max 0.5 (cap /. meas_p))
  else if meas_p < under && t0 < 1.0 then
    e.e_throttle <-
      Float.min 1.0 (t0 *. Float.min 1.1 (cap /. Float.max meas_p 1e-9));
  Tm.set e.e_g_throttle e.e_throttle;
  if e.e_throttle <> t0 then actuate ctl e

let bias_dvfs ctl =
  if ctl.dvfs_bias then begin
    let dvfs = Psbox_hw.Cpu.dvfs (System.cpu ctl.sys) in
    (* lower the machine's OPP ceiling only when per-app throttling has hit
       its floor and an app still overshoots — i.e. the shared uncore draw
       itself is the problem; creep back up while everyone fits *)
    let stuck_over = ref false and all_within = ref true in
    Hashtbl.iter
      (fun _ e ->
        let meas = windowed_mean_w ctl e in
        let cap = effective_cap_of ctl e in
        if meas > cap *. (1.0 +. ctl.hysteresis) then begin
          all_within := false;
          if e.e_throttle <= throttle_floor +. 1e-9 then stuck_over := true
        end)
      ctl.entries;
    let c = Psbox_hw.Dvfs.ceiling dvfs in
    if !stuck_over && c > 0 then Psbox_hw.Dvfs.set_ceiling dvfs (c - 1)
    else if !all_within && c < Psbox_hw.Dvfs.max_index dvfs then
      Psbox_hw.Dvfs.set_ceiling dvfs (c + 1)
  end

(* The control tick is demand-armed on the fixed grid [epoch + k*period]:
   it runs only while there is something to control — a registered entry,
   or a biased-down DVFS ceiling that still has to creep back to the top.
   An idle controller costs no simulator events, and because skipped
   periods would have iterated zero entries they are exact no-ops. *)
let tick_needed ctl =
  Hashtbl.length ctl.entries > 0
  || ctl.dvfs_bias
     &&
     let d = Psbox_hw.Cpu.dvfs (System.cpu ctl.sys) in
     Psbox_hw.Dvfs.ceiling d < Psbox_hw.Dvfs.max_index d

let rec arm_tick ctl =
  if Sim.is_none ctl.tick && (not ctl.stopped) && tick_needed ctl then begin
    let k = ((now ctl - ctl.epoch) / ctl.period) + 1 in
    ctl.tick <-
      Sim.schedule_at (sim ctl) ~label:l_tick
        (ctl.epoch + (k * ctl.period))
        (fun () -> tick_fired ctl)
  end

and tick_fired ctl =
  ctl.tick <- Sim.none;
  if not ctl.stopped then begin
    Tm.incr m_ticks;
    Hashtbl.iter (fun _ e -> control_entry ctl e) ctl.entries;
    bias_dvfs ctl;
    arm_tick ctl
  end

let cancel_tick ctl =
  Sim.cancel (sim ctl) ctl.tick;
  ctl.tick <- Sim.none

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)

let create sys ?(period = Time.ms 50) ?(window_periods = 4)
    ?(hysteresis = 0.05) ?(dvfs_bias = false) ?machine_budget_w () =
  if window_periods <= 0 then
    invalid_arg "Budget.create: window_periods must be positive";
  if hysteresis < 0.0 then invalid_arg "Budget.create: negative hysteresis";
  let from = Sim.now (System.sim sys) in
  let splitters =
    [ Split.live_cpu (System.smp sys) ~from ]
    @ (if System.has_gpu sys then [ Split.live_accel (System.gpu sys) ~from ]
       else [])
    @ (if System.has_dsp sys then [ Split.live_accel (System.dsp sys) ~from ]
       else [])
    @
    if System.has_wifi sys then [ Split.live_net (System.net sys) ~from ]
    else []
  in
  let ctl =
    {
      sys;
      period;
      window_periods;
      hysteresis;
      dvfs_bias;
      entries = Hashtbl.create 8;
      splitters;
      epoch = from;
      tick = Sim.none;
      stopped = false;
      machine_budget_w;
      reserved = Hashtbl.create 8;
      wait_q = Queue.create ();
      admission_estimate = None;
    }
  in
  (* no periodic timer: the first entry arms the control loop *)
  ctl

let period ctl = ctl.period

let entry ctl app =
  match Hashtbl.find_opt ctl.entries app with
  | Some e -> e
  | None ->
      let e =
        {
          e_app = app;
          e_demand = Cap infinity;
          e_env_set_t = now ctl;
          e_env_base_j = 0.0;
          e_throttle = 1.0;
          e_prev_j = app_total_j ctl ~app;
          e_ring = Array.make ctl.window_periods 0.0;
          e_ring_i = 0;
          e_ring_n = 0;
          e_history = [];
          e_lane = "app" ^ string_of_int app;
          e_g_throttle =
            Tm.gauge (Printf.sprintf "budget.app%d.throttle_level" app);
          e_g_measured =
            Tm.gauge (Printf.sprintf "budget.app%d.measured_w" app);
          e_c_viol =
            Tm.counter (Printf.sprintf "budget.app%d.violations" app);
        }
      in
      Tm.set e.e_g_throttle e.e_throttle;
      Hashtbl.replace ctl.entries app e;
      arm_tick ctl;
      e

let set_cap ctl ~app ~watts =
  if watts < 0.0 then invalid_arg "Budget.set_cap: negative cap";
  let e = entry ctl app in
  e.e_demand <- Cap watts

let set_envelope ctl ~app ~joules ~horizon =
  if joules < 0.0 then invalid_arg "Budget.set_envelope: negative joules";
  if horizon <= 0 then invalid_arg "Budget.set_envelope: empty horizon";
  let e = entry ctl app in
  e.e_demand <- Envelope { joules; horizon };
  e.e_env_set_t <- now ctl;
  e.e_env_base_j <- app_total_j ctl ~app

let tighten ?(factor = 0.9) ctl ~app =
  if not (Float.is_finite factor) || factor <= 0.0 || factor >= 1.0 then
    invalid_arg "Budget.tighten: factor must be in (0, 1)";
  match Hashtbl.find_opt ctl.entries app with
  | None -> ()
  | Some e -> (
      match e.e_demand with
      | Cap w when Float.is_finite w -> e.e_demand <- Cap (w *. factor)
      | Cap _ -> () (* an uncapped entry has nothing to ratchet *)
      | Envelope { joules; horizon } ->
          e.e_demand <- Envelope { joules = joules *. factor; horizon })

let clear ctl ~app =
  match Hashtbl.find_opt ctl.entries app with
  | Some _ ->
      Hashtbl.remove ctl.entries app;
      release_actuation ctl app;
      if not (tick_needed ctl) then cancel_tick ctl
  | None -> ()

let measured_w ctl ~app =
  match Hashtbl.find_opt ctl.entries app with
  | Some e -> windowed_mean_w ctl e
  | None -> 0.0

let effective_cap_w ctl ~app =
  match Hashtbl.find_opt ctl.entries app with
  | Some e -> effective_cap_of ctl e
  | None -> infinity

let throttle ctl ~app =
  match Hashtbl.find_opt ctl.entries app with
  | Some e -> e.e_throttle
  | None -> 1.0

let history ctl ~app =
  match Hashtbl.find_opt ctl.entries app with
  | Some e -> List.rev e.e_history
  | None -> []

let stop ctl =
  if not ctl.stopped then begin
    ctl.stopped <- true;
    cancel_tick ctl;
    Hashtbl.iter (fun app _ -> release_actuation ctl app) ctl.entries;
    List.iter Split.live_detach ctl.splitters
  end

(* ------------------------------------------------------------------ *)
(* Admission control                                                    *)

let reserved_w ctl =
  Hashtbl.fold (fun _ (_, eff) acc -> acc +. eff) ctl.reserved 0.0

let remaining_w ctl =
  match ctl.machine_budget_w with
  | None -> infinity
  | Some b -> b -. reserved_w ctl

let set_admission_estimate ctl f = ctl.admission_estimate <- f

(* Effective reservation: the declared watts, cross-checked against the
   modeled draw when an estimate oracle is wired in. Over-declaring apps
   are charged what the model says they actually draw; under-declaring
   apps still pay their full declaration (the cap they asked for). *)
let effective_reservation ctl ~app ~declared =
  match ctl.admission_estimate with
  | None -> declared
  | Some f -> (
      match f app with
      | Some est when est >= 0.0 -> Float.min declared est
      | Some _ | None -> declared)

let update_overdeclared ctl =
  Tm.set m_overdeclared
    (Hashtbl.fold
       (fun _ (decl, eff) acc -> acc +. (decl -. eff))
       ctl.reserved 0.0)

let admitted ctl ~app = Hashtbl.mem ctl.reserved app
let queued ctl = Queue.length ctl.wait_q

let reservation ctl ~app = Hashtbl.find_opt ctl.reserved app

let admit ctl ~app ~watts ?(on_admit = fun () -> ()) ?(queue = false) () =
  if watts < 0.0 then invalid_arg "Budget.admit: negative demand";
  if Hashtbl.mem ctl.reserved app then invalid_arg "Budget.admit: already admitted";
  let eff = effective_reservation ctl ~app ~declared:watts in
  if eff <= remaining_w ctl then begin
    Hashtbl.replace ctl.reserved app (watts, eff);
    update_overdeclared ctl;
    Admitted
  end
  else if queue then begin
    Queue.push (app, watts, on_admit) ctl.wait_q;
    Queued
  end
  else Rejected

let release ctl ~app =
  if Hashtbl.mem ctl.reserved app then begin
    Hashtbl.remove ctl.reserved app;
    (* head-first drain: strict FIFO, so a large waiter at the head blocks
       smaller ones behind it (no sneak-past starvation of big requests).
       The head's effective charge is re-evaluated at drain time — the
       model has seen the waiter's history since it queued. *)
    let continue = ref true in
    while !continue && not (Queue.is_empty ctl.wait_q) do
      let w_app, w_watts, w_cb = Queue.peek ctl.wait_q in
      let w_eff = effective_reservation ctl ~app:w_app ~declared:w_watts in
      if w_eff <= remaining_w ctl then begin
        ignore (Queue.pop ctl.wait_q);
        Hashtbl.replace ctl.reserved w_app (w_watts, w_eff);
        w_cb ()
      end
      else continue := false
    done;
    update_overdeclared ctl
  end
