(* Counter-driven power models: fit per-rail power models from power-state
   residency counters against the kernel energy ledger, estimate live, and
   report how wrong the model is as a first-class metric.

   The feature vectors are exactly the residencies that determine each
   rail's draw (per-OPP busy/active time, suspend/awake residency, per-level
   airtime), so a per-OPP least-squares fit recovers the hardware's power
   parameters and the only residual is float noise; the aggregate Linear
   model is the realistic degraded baseline. Everything here is a pure
   observer: attaching a sampler, recorder or estimator changes no
   simulation decision. *)

open Psbox_engine
module System = Psbox_kernel.System
module Accel_driver = Psbox_kernel.Accel_driver
module Split = Psbox_accounting.Split
module Tm = Psbox_telemetry.Metrics
module Tt = Psbox_telemetry.Tracing
module Cpu = Psbox_hw.Cpu
module Accel = Psbox_hw.Accel
module Wifi = Psbox_hw.Wifi
module Dvfs = Psbox_hw.Dvfs
module Power_rail = Psbox_hw.Power_rail
module W = Psbox_workloads.Workload

let model_track = "model"
let m_drift_alarms = Tm.counter "model.drift.alarms"
let m_swaps = Tm.counter "model.swaps"

(* ------------------------------------------------------------------ *)
(* Traces: windowed (feature delta, joule delta) observations per rail  *)

module Trace = struct
  type window = {
    w_t_s : float;  (** window end, seconds since sim start *)
    w_feat : float array;  (** per-feature residency deltas; [0] is dt_s *)
    w_j : float;  (** ledger joules drawn in the window *)
  }

  type t = {
    tr_rail : string;
    tr_names : string array;  (** per-OPP feature names, [0] = "dt_s" *)
    tr_linear_names : string array;  (** collapsed (aggregate) schema *)
    tr_linear_map : int array;  (** per-OPP index -> collapsed index *)
    tr_windows : window list;  (** oldest first *)
  }
end

(* ------------------------------------------------------------------ *)
(* Samplers: cumulative residency feature vectors per rail              *)

type sampler = {
  s_rail : string;
  s_names : string array;
  s_linear_names : string array;
  s_linear_map : int array;
  s_read : unit -> float array;
  s_detach : unit -> unit;
}

(* Per-OPP busy/active residency: settle the cumulative busy/active time
   into the OPP in effect since the last settle, on every OPP change and on
   every read. Exact because the OPP is constant between changes. *)
let per_opp_residency sim dvfs ~busy ~active =
  ignore sim;
  let opps = Dvfs.opps dvfs in
  let n = Array.length opps in
  let busy_at = Array.make n 0.0 and active_at = Array.make n 0.0 in
  let last_busy = ref (busy ()) and last_active = ref (active ()) in
  let cur = ref (Dvfs.opp_index dvfs) in
  let settle idx_now =
    let b = busy () and a = active () in
    busy_at.(!cur) <- busy_at.(!cur) +. (b -. !last_busy);
    active_at.(!cur) <- active_at.(!cur) +. (a -. !last_active);
    last_busy := b;
    last_active := a;
    cur := idx_now
  in
  let sub =
    Bus.subscribe (Dvfs.changes dvfs) (fun ch ->
        settle ch.Dvfs.index_after)
  in
  let read () =
    settle !cur;
    (Array.copy busy_at, Array.copy active_at)
  in
  (read, fun () -> Bus.unsubscribe sub)

let cpu_sampler sys =
  let cpu = System.cpu sys in
  let sim = System.sim sys in
  let dvfs = Cpu.dvfs cpu in
  let opps = Dvfs.opps dvfs in
  let t0 = Sim.now sim in
  let read_opp, detach =
    per_opp_residency sim dvfs
      ~busy:(fun () -> Cpu.busy_core_seconds cpu)
      ~active:(fun () -> Cpu.active_seconds cpu)
  in
  let names =
    Array.concat
      [
        [| "dt_s" |];
        Array.map (fun o -> Printf.sprintf "busy@%dmhz_s" o.Dvfs.freq_mhz) opps;
        Array.map
          (fun o -> Printf.sprintf "active@%dmhz_s" o.Dvfs.freq_mhz)
          opps;
      ]
  in
  let n = Array.length opps in
  let linear_map =
    Array.init (Array.length names) (fun i ->
        if i = 0 then 0 else if i <= n then 1 else 2)
  in
  {
    s_rail = Power_rail.name (Cpu.rail cpu);
    s_names = names;
    s_linear_names = [| "dt_s"; "busy_s"; "active_s" |];
    s_linear_map = linear_map;
    s_read =
      (fun () ->
        let busy_at, active_at = read_opp () in
        Array.concat
          [ [| Time.to_sec_f (Sim.now sim - t0) |]; busy_at; active_at ]);
    s_detach = detach;
  }

let accel_sampler sys drv =
  let dev = Accel_driver.device drv in
  let sim = System.sim sys in
  let dvfs = Accel.dvfs dev in
  let opps = Dvfs.opps dvfs in
  let t0 = Sim.now sim in
  let read_opp, detach =
    per_opp_residency sim dvfs
      ~busy:(fun () -> Accel.busy_unit_seconds dev)
      ~active:(fun () -> Accel.active_seconds dev)
  in
  let names =
    Array.concat
      [
        [| "dt_s"; "suspended_s" |];
        Array.map (fun o -> Printf.sprintf "busy@%dmhz_s" o.Dvfs.freq_mhz) opps;
        Array.map
          (fun o -> Printf.sprintf "active@%dmhz_s" o.Dvfs.freq_mhz)
          opps;
      ]
  in
  let n = Array.length opps in
  let linear_map =
    Array.init (Array.length names) (fun i ->
        if i <= 1 then i else if i <= n + 1 then 2 else 3)
  in
  {
    s_rail = Power_rail.name (Accel.rail dev);
    s_names = names;
    s_linear_names = [| "dt_s"; "suspended_s"; "busy_s"; "active_s" |];
    s_linear_map = linear_map;
    s_read =
      (fun () ->
        let busy_at, active_at = read_opp () in
        Array.concat
          [
            [|
              Time.to_sec_f (Sim.now sim - t0); Accel.suspended_seconds dev;
            |];
            busy_at;
            active_at;
          ]);
    s_detach = detach;
  }

let wifi_sampler sys =
  let nic = Psbox_kernel.Net_sched.nic (System.net sys) in
  let sim = System.sim sys in
  let t0 = Sim.now sim in
  let levels = Wifi.tx_level_count nic in
  let names =
    Array.concat
      [
        [| "dt_s"; "awake_s" |];
        Array.init levels (fun i -> Printf.sprintf "txair.l%d_s" i);
        [| "rxair_s" |];
      ]
  in
  let linear_map =
    Array.init (Array.length names) (fun i ->
        if i <= 1 then i else if i <= levels + 1 then 2 else 3)
  in
  {
    s_rail = Power_rail.name (Wifi.rail nic);
    s_names = names;
    s_linear_names = [| "dt_s"; "awake_s"; "txair_s"; "rxair_s" |];
    s_linear_map = linear_map;
    s_read =
      (fun () ->
        Array.concat
          [
            [| Time.to_sec_f (Sim.now sim - t0); Wifi.awake_seconds nic |];
            Wifi.tx_airtime_by_level_seconds nic;
            [| Wifi.rx_airtime_seconds nic |];
          ]);
    s_detach = (fun () -> ());
  }

let samplers sys =
  [ cpu_sampler sys ]
  @ (if System.has_gpu sys then [ accel_sampler sys (System.gpu sys) ] else [])
  @ (if System.has_dsp sys then [ accel_sampler sys (System.dsp sys) ] else [])
  @ if System.has_wifi sys then [ wifi_sampler sys ] else []

(* ------------------------------------------------------------------ *)
(* Offline fitter                                                       *)

module Fit = struct
  type kind = Linear | Per_opp

  type fitted = {
    f_rail : string;
    f_kind : kind;
    f_names : string array;
    f_coeffs : float array;
  }

  (* Ridge least squares without an intercept (dt is an explicit feature,
     so an intercept would be collinear with it). The tiny ridge keeps the
     normal equations solvable when a residency column is all zero — an
     OPP never visited, a device never suspended — and pins that
     coefficient to 0 instead of failing. *)
  let lstsq ?(ridge = 1e-9) rows =
    match rows with
    | [] -> invalid_arg "Model.Fit.lstsq: no observations"
    | (f0, _) :: _ ->
        let d = Array.length f0 in
        let xtx = Array.make_matrix d d 0.0 in
        let xty = Array.make d 0.0 in
        List.iter
          (fun (f, y) ->
            if Array.length f <> d then
              invalid_arg "Model.Fit.lstsq: inconsistent dimensions";
            for i = 0 to d - 1 do
              xty.(i) <- xty.(i) +. (f.(i) *. y);
              for j = 0 to d - 1 do
                xtx.(i).(j) <- xtx.(i).(j) +. (f.(i) *. f.(j))
              done
            done)
          rows;
        for i = 0 to d - 1 do
          xtx.(i).(i) <- xtx.(i).(i) +. ridge
        done;
        Stats.solve ~min_pivot:1e-30 xtx xty

  let project ~kind (trace : Trace.t) feat =
    match kind with
    | Per_opp -> feat
    | Linear ->
        let out = Array.make (Array.length trace.Trace.tr_linear_names) 0.0 in
        Array.iteri
          (fun i v ->
            let j = trace.Trace.tr_linear_map.(i) in
            out.(j) <- out.(j) +. v)
          feat;
        out

  let fit ?ridge ~kind (trace : Trace.t) =
    let rows =
      List.map
        (fun w -> (project ~kind trace w.Trace.w_feat, w.Trace.w_j))
        trace.Trace.tr_windows
    in
    let names =
      match kind with
      | Per_opp -> trace.Trace.tr_names
      | Linear -> trace.Trace.tr_linear_names
    in
    {
      f_rail = trace.Trace.tr_rail;
      f_kind = kind;
      f_names = names;
      f_coeffs = lstsq ?ridge rows;
    }

  let predict_j m feat =
    if Array.length feat <> Array.length m.f_coeffs then
      invalid_arg "Model.Fit.predict_j: dimension mismatch";
    let acc = ref 0.0 in
    Array.iteri (fun i v -> acc := !acc +. (m.f_coeffs.(i) *. v)) feat;
    !acc

  type errors = { e_mape_pct : float; e_rmse_w : float; e_max_ape_pct : float }

  let validate m (trace : Trace.t) =
    let n = ref 0 and ape = ref 0.0 and se = ref 0.0 and mx = ref 0.0 in
    List.iter
      (fun w ->
        let feat = project ~kind:m.f_kind trace w.Trace.w_feat in
        let pred = predict_j m feat in
        let dt = w.Trace.w_feat.(0) in
        if dt > 0.0 && w.Trace.w_j > 0.0 then begin
          incr n;
          let a = Float.abs (pred -. w.Trace.w_j) /. w.Trace.w_j *. 100.0 in
          ape := !ape +. a;
          if a > !mx then mx := a;
          let ew = (pred -. w.Trace.w_j) /. dt in
          se := !se +. (ew *. ew)
        end)
      trace.Trace.tr_windows;
    if !n = 0 then { e_mape_pct = 0.0; e_rmse_w = 0.0; e_max_ape_pct = 0.0 }
    else
      {
        e_mape_pct = !ape /. float_of_int !n;
        e_rmse_w = sqrt (!se /. float_of_int !n);
        e_max_ape_pct = !mx;
      }

  let perturb m pct =
    if pct = 0.0 then m
    else
      {
        m with
        f_coeffs = Array.map (fun c -> c *. (1.0 +. (pct /. 100.0))) m.f_coeffs;
      }
end

(* ------------------------------------------------------------------ *)
(* Recorder: windowed traces from a live machine                        *)

module Recorder = struct
  type rail_rec = {
    rr_s : sampler;
    mutable rr_prev_f : float array;
    mutable rr_prev_j : float;
    mutable rr_windows : Trace.window list; (* newest first *)
  }

  type t = {
    rc_sys : System.t;
    rc_rails : rail_rec list;
    rc_periodic : Sim.periodic;
    mutable rc_stopped : bool;
  }

  let tick sys rails () =
    let t_s = Time.to_sec_f (System.now sys) in
    List.iter
      (fun rr ->
        let f = rr.rr_s.s_read () in
        let j = System.rail_energy_j sys ~name:rr.rr_s.s_rail in
        let df = Array.mapi (fun i v -> v -. rr.rr_prev_f.(i)) f in
        rr.rr_windows <-
          { Trace.w_t_s = t_s; w_feat = df; w_j = j -. rr.rr_prev_j }
          :: rr.rr_windows;
        rr.rr_prev_f <- f;
        rr.rr_prev_j <- j)
      rails

  let start sys ?(window = Time.ms 50) () =
    let rails =
      List.map
        (fun s ->
          {
            rr_s = s;
            rr_prev_f = s.s_read ();
            rr_prev_j = System.rail_energy_j sys ~name:s.s_rail;
            rr_windows = [];
          })
        (samplers sys)
    in
    {
      rc_sys = sys;
      rc_rails = rails;
      rc_periodic = System.every sys window (tick sys rails);
      rc_stopped = false;
    }

  let traces_of t =
    List.map
      (fun rr ->
        {
          Trace.tr_rail = rr.rr_s.s_rail;
          tr_names = rr.rr_s.s_names;
          tr_linear_names = rr.rr_s.s_linear_names;
          tr_linear_map = rr.rr_s.s_linear_map;
          tr_windows = List.rev rr.rr_windows;
        })
      t.rc_rails

  let current t = traces_of t

  let stop t =
    if not t.rc_stopped then begin
      t.rc_stopped <- true;
      Sim.cancel_every t.rc_periodic;
      List.iter (fun rr -> rr.rr_s.s_detach ()) t.rc_rails
    end;
    traces_of t
end

(* ------------------------------------------------------------------ *)
(* Online estimator with drift detection                                *)

module Estimator = struct
  type est_rail = {
    mutable er_model : Fit.fitted;
    er_s : sampler;
    mutable er_prev_f : float array;
    mutable er_prev_j : float;
    er_ring : float array; (* recent per-window APE%, circular *)
    mutable er_ring_i : int;
    mutable er_ring_n : int;
    mutable er_latched : bool;
    er_g_est : Tm.gauge;
    er_g_mape : Tm.gauge;
    er_h_resid : Tm.histogram;
  }

  type t = {
    e_sys : System.t;
    e_window : Time.span;
    e_threshold_pct : float;
    e_rails : est_rail list;
    mutable e_periodic : Sim.periodic option;
    e_splitters : Split.live list;
    e_t0 : Time.t;
    mutable e_cum_pred_j : float;
    mutable e_cum_ledger_j : float;
    mutable e_ticks : int;
    mutable e_alarms : int;
    mutable e_swaps : int;
    mutable e_stopped : bool;
  }

  let windowed_mape er =
    if er.er_ring_n = 0 then 0.0
    else begin
      let acc = ref 0.0 in
      for i = 0 to er.er_ring_n - 1 do
        acc := !acc +. er.er_ring.(i)
      done;
      !acc /. float_of_int er.er_ring_n
    end

  let tick t () =
    t.e_ticks <- t.e_ticks + 1;
    let dt = Time.to_sec_f t.e_window in
    List.iter
      (fun er ->
        let f = er.er_s.s_read () in
        let j = System.rail_energy_j t.e_sys ~name:er.er_s.s_rail in
        let df = Array.mapi (fun i v -> v -. er.er_prev_f.(i)) f in
        let dj = j -. er.er_prev_j in
        er.er_prev_f <- f;
        er.er_prev_j <- j;
        let pred =
          Fit.predict_j er.er_model
            (Fit.project ~kind:er.er_model.Fit.f_kind
               {
                 Trace.tr_rail = er.er_s.s_rail;
                 tr_names = er.er_s.s_names;
                 tr_linear_names = er.er_s.s_linear_names;
                 tr_linear_map = er.er_s.s_linear_map;
                 tr_windows = [];
               }
               df)
        in
        t.e_cum_pred_j <- t.e_cum_pred_j +. pred;
        t.e_cum_ledger_j <- t.e_cum_ledger_j +. dj;
        Tm.set er.er_g_est (pred /. dt);
        if dj > 0.0 then begin
          let ape = Float.abs (pred -. dj) /. dj *. 100.0 in
          Tm.observe er.er_h_resid ape;
          er.er_ring.(er.er_ring_i) <- ape;
          er.er_ring_i <- (er.er_ring_i + 1) mod Array.length er.er_ring;
          if er.er_ring_n < Array.length er.er_ring then
            er.er_ring_n <- er.er_ring_n + 1
        end;
        let mape = windowed_mape er in
        Tm.set er.er_g_mape mape;
        (* drift latch: one alarm per excursion, released with hysteresis *)
        if er.er_ring_n = Array.length er.er_ring then
          if (not er.er_latched) && mape > t.e_threshold_pct then begin
            er.er_latched <- true;
            t.e_alarms <- t.e_alarms + 1;
            Tm.incr m_drift_alarms;
            if Tt.recording () then
              Tt.instant ~track:model_track ~lane:er.er_s.s_rail ~name:"drift"
                ~args:
                  [ ("mape_pct", mape); ("threshold_pct", t.e_threshold_pct) ]
                (Sim.now (System.sim t.e_sys))
          end
          else if er.er_latched && mape < 0.8 *. t.e_threshold_pct then
            er.er_latched <- false)
      t.e_rails

  let start sys ~models ?(window = Time.ms 50) ?(mape_window = 8)
      ?(drift_threshold_pct = 5.0) () =
    let from = Sim.now (System.sim sys) in
    let rails =
      List.filter_map
        (fun s ->
          match
            List.find_opt (fun m -> m.Fit.f_rail = s.s_rail) models
          with
          | None ->
              s.s_detach ();
              None
          | Some m ->
              Some
                {
                  er_model = m;
                  er_s = s;
                  er_prev_f = s.s_read ();
                  er_prev_j = System.rail_energy_j sys ~name:s.s_rail;
                  er_ring = Array.make (max 1 mape_window) 0.0;
                  er_ring_i = 0;
                  er_ring_n = 0;
                  er_latched = false;
                  er_g_est =
                    Tm.gauge (Printf.sprintf "model.rail.%s.est_w" s.s_rail);
                  er_g_mape =
                    Tm.gauge (Printf.sprintf "model.rail.%s.mape_pct" s.s_rail);
                  er_h_resid =
                    Tm.histogram
                      (Printf.sprintf "model.rail.%s.resid_pct" s.s_rail)
                      ~edges:[| 0.5; 1.0; 2.0; 5.0; 10.0; 25.0; 100.0 |];
                })
        (samplers sys)
    in
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
    let t =
      {
        e_sys = sys;
        e_window = window;
        e_threshold_pct = drift_threshold_pct;
        e_rails = rails;
        e_periodic = None;
        e_splitters = splitters;
        e_t0 = from;
        e_cum_pred_j = 0.0;
        e_cum_ledger_j = 0.0;
        e_ticks = 0;
        e_alarms = 0;
        e_swaps = 0;
        e_stopped = false;
      }
    in
    t.e_periodic <- Some (System.every sys window (fun () -> tick t ()));
    t

  let stop t =
    if not t.e_stopped then begin
      t.e_stopped <- true;
      (match t.e_periodic with
      | Some p -> Sim.cancel_every p
      | None -> ());
      List.iter (fun er -> er.er_s.s_detach ()) t.e_rails;
      List.iter Split.live_detach t.e_splitters
    end

  let alarms t = t.e_alarms
  let ticks t = t.e_ticks
  let swaps t = t.e_swaps

  let model t ~rail =
    List.find_opt (fun er -> er.er_s.s_rail = rail) t.e_rails
    |> Option.map (fun er -> er.er_model)

  (* Hot-swap a rail's model under the live estimator: the MAPE ring and
     drift latch restart from scratch so the published mape_pct reflects
     only the new model, while the counter cursors (er_prev_f/er_prev_j)
     carry over — residency is a property of the machine, not the model. *)
  let swap_model t m =
    match
      List.find_opt (fun er -> er.er_s.s_rail = m.Fit.f_rail) t.e_rails
    with
    | None -> false
    | Some er ->
        er.er_model <- m;
        Array.fill er.er_ring 0 (Array.length er.er_ring) 0.0;
        er.er_ring_i <- 0;
        er.er_ring_n <- 0;
        er.er_latched <- false;
        t.e_swaps <- t.e_swaps + 1;
        Tm.incr m_swaps;
        if Tt.recording () then
          Tt.instant ~track:model_track ~lane:er.er_s.s_rail ~name:"swap"
            ~args:[ ("swaps", float_of_int t.e_swaps) ]
            (Sim.now (System.sim t.e_sys));
        true

  (* Modeled history for one app: its attributed draw since the estimator
     started, scaled by the model's cumulative modeled/ledger ratio — the
     admission-control cross-check signal. None until the first window has
     settled, so callers fall back to declared watts. *)
  let app_est_w t ~app =
    if t.e_ticks = 0 || t.e_cum_ledger_j <= 0.0 then None
    else begin
      let until = Sim.now (System.sim t.e_sys) in
      let elapsed = Time.to_sec_f (until - t.e_t0) in
      if elapsed <= 0.0 then None
      else begin
        let cum =
          List.fold_left
            (fun acc lv ->
              match List.assoc_opt app (Split.live_read lv ~until) with
              | Some j -> acc +. j
              | None -> acc)
            0.0 t.e_splitters
        in
        let scale = t.e_cum_pred_j /. t.e_cum_ledger_j in
        Some (cum /. elapsed *. scale)
      end
    end
end

(* ------------------------------------------------------------------ *)
(* Calibration: deterministic random search over hw parameters          *)

module Calibrate = struct
  type dim = { d_name : string; d_lo : float; d_hi : float }

  (* Shrinking-radius random search around the incumbent. Round [r] draws
     all its candidates from [Rng.derive ~seed r], so the search is a pure
     function of (seed, rounds, samples, dims, objective) — derivation
     order cannot leak in. *)
  let search ~seed ?(rounds = 10) ?(samples = 32) ~dims ~objective () =
    (match dims with [] -> invalid_arg "Model.Calibrate.search: no dims" | _ -> ());
    let dims = Array.of_list dims in
    let center = Array.map (fun d -> 0.5 *. (d.d_lo +. d.d_hi)) dims in
    let best = ref center and best_err = ref (objective center) in
    for r = 0 to rounds - 1 do
      let rng = Rng.create ~seed:(Rng.derive ~seed r) in
      let radius = 0.7 ** float_of_int r in
      for _ = 1 to samples do
        let cand =
          Array.mapi
            (fun i c ->
              let span = (dims.(i).d_hi -. dims.(i).d_lo) *. radius in
              let v = c +. Rng.uniform rng ~lo:(-.span) ~hi:span in
              Float.min dims.(i).d_hi (Float.max dims.(i).d_lo v))
            !best
        in
        let e = objective cand in
        if e < !best_err then begin
          best := cand;
          best_err := e
        end
      done
    done;
    (!best, !best_err)

  (* Calibrate a rail's hw parameters against a reference trace: the
     searched vector IS the parameter set (the "dt_s" coefficient is the
     idle floor, "busy@<f>mhz_s" the per-OPP active watts, "suspended_s"
     the suspend_w - idle_w delta, ...), and the objective is the RMSE of
     the induced model on the reference windows. *)
  let calibrate_trace ?(kind = Fit.Per_opp) ~seed ?rounds ?samples ?around
      ?(margin = 0.3) (trace : Trace.t) =
    let names =
      match kind with
      | Fit.Per_opp -> trace.Trace.tr_names
      | Fit.Linear -> trace.Trace.tr_linear_names
    in
    let rows =
      List.map
        (fun w -> (Fit.project ~kind trace w.Trace.w_feat, w.Trace.w_j))
        trace.Trace.tr_windows
    in
    let dims =
      match around with
      | Some (m : Fit.fitted) ->
          (* Recalibration: the incumbent model is wrong but not arbitrary,
             so search a tight box centered on it — the first round's center
             IS the incumbent — instead of the blind full-range box. *)
          if m.Fit.f_kind <> kind || Array.length m.Fit.f_coeffs <> Array.length names
          then
            invalid_arg "Model.Calibrate.calibrate_trace: around schema mismatch";
          Array.to_list
            (Array.mapi
               (fun i n ->
                 let c = m.Fit.f_coeffs.(i) in
                 let half = Float.max (margin *. Float.abs c) 0.05 in
                 let lo = c -. half and hi = c +. half in
                 let lo = if n = "dt_s" then Float.max 0.0 lo else lo in
                 { d_name = n; d_lo = lo; d_hi = hi })
               names)
      | None ->
          Array.to_list
            (Array.map
               (fun n ->
                 (* idle floors are non-negative; state deltas (suspend,
                    awake) may run below the idle coefficient *)
                 if n = "dt_s" then { d_name = n; d_lo = 0.0; d_hi = 3.0 }
                 else { d_name = n; d_lo = -2.0; d_hi = 6.0 })
               names)
    in
    let objective coeffs =
      let n = ref 0 and se = ref 0.0 in
      List.iter
        (fun (f, y) ->
          let acc = ref 0.0 in
          Array.iteri (fun i v -> acc := !acc +. (coeffs.(i) *. v)) f;
          let dt = f.(0) in
          if dt > 0.0 then begin
            incr n;
            let ew = (!acc -. y) /. dt in
            se := !se +. (ew *. ew)
          end)
        rows;
      if !n = 0 then 0.0 else sqrt (!se /. float_of_int !n)
    in
    let best, err = search ~seed ?rounds ?samples ~dims ~objective () in
    ( {
        Fit.f_rail = trace.Trace.tr_rail;
        f_kind = kind;
        f_names = names;
        f_coeffs = best;
      },
      err )
end

(* ------------------------------------------------------------------ *)
(* model-check: fit on one seed, validate on another                    *)

module Check = struct
  type rail_report = {
    rr_rail : string;
    rr_mape_pct : float;
    rr_rmse_w : float;
    rr_max_ape_pct : float;
    rr_linear_mape_pct : float;
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
    c_max_mape_pct : float;
    c_drift_alarms : int;
  }

  (* The reference scenario: a dual-core machine with GPU and WiFi, one
     phased mixed app (CPU + GPU frames + bidirectional request/response
     traffic — the RX path) and one phased CPU-bursty app. The phases move
     the governors across OPPs, let the GPU autosuspend and walk the NIC
     through TX levels, tail and power-save, so every residency feature
     carries signal. *)
  let scenario_sys ~seed = System.create ~seed ~cores:2 ~gpu:true ~wifi:true ()

  let install_workload sys =
    let a = System.new_app sys ~name:"mix" in
    let b = System.new_app sys ~name:"bursty" in
    let i = ref 0 in
    ignore
      (W.spawn sys ~app:a ~name:"mix" ~core:0
         (W.forever (fun () ->
              incr i;
              match !i / 12 mod 3 with
              | 0 ->
                  [
                    W.Compute (Time.ms 4);
                    W.Gpu_batch [ W.spec ~kind:"frame" ~work_s:0.002 () ];
                    W.Request
                      {
                        socket = 1;
                        tx_bytes = 3_000;
                        rx_bytes = 16_000;
                        rtt = Time.ms 2;
                      };
                  ]
              | 1 ->
                  [
                    W.Compute (Time.ms 1);
                    W.Sleep (Time.ms 6);
                    W.Send { socket = 1; bytes = 6_000 };
                  ]
              | _ -> [ W.Sleep (Time.ms 9); W.Compute (Time.us 500) ])));
    let j = ref 0 in
    ignore
      (W.spawn sys ~app:b ~name:"bursty" ~core:1
         (W.forever (fun () ->
              incr j;
              match !j / 40 mod 2 with
              | 0 -> [ W.Compute (Time.ms 3) ]
              | _ -> [ W.Compute (Time.us 800); W.Sleep (Time.ms 7) ])));
    (a.System.app_id, b.System.app_id)

  let record_run ~seed ~window ~windows ~models ~drift_threshold_pct =
    let sys = scenario_sys ~seed in
    ignore (install_workload sys);
    System.start sys;
    let rc = Recorder.start sys ~window () in
    let est =
      match models with
      | [] -> None
      | ms -> Some (Estimator.start sys ~models:ms ~window ~drift_threshold_pct ())
    in
    System.run_for sys (window * windows);
    let traces = Recorder.stop rc in
    let alarms =
      match est with
      | None -> 0
      | Some e ->
          Estimator.stop e;
          Estimator.alarms e
    in
    System.shutdown sys;
    (traces, alarms)

  let run ?(fit_seed = 11) ?(val_seed = 23) ?(window = Time.ms 50)
      ?(windows = 40) ?(perturb_pct = 0.0) ?(drift_threshold_pct = 5.0) () =
    if windows <= 0 then invalid_arg "Model.Check.run: windows must be positive";
    let fit_traces, _ =
      record_run ~seed:fit_seed ~window ~windows ~models:[]
        ~drift_threshold_pct
    in
    let models =
      List.map
        (fun tr -> Fit.perturb (Fit.fit ~kind:Fit.Per_opp tr) perturb_pct)
        fit_traces
    in
    let linear_models =
      List.map
        (fun tr -> Fit.perturb (Fit.fit ~kind:Fit.Linear tr) perturb_pct)
        fit_traces
    in
    let val_traces, alarms =
      record_run ~seed:val_seed ~window ~windows ~models ~drift_threshold_pct
    in
    let rails =
      List.map
        (fun (tr : Trace.t) ->
          let m =
            List.find (fun m -> m.Fit.f_rail = tr.Trace.tr_rail) models
          in
          let lm =
            List.find
              (fun m -> m.Fit.f_rail = tr.Trace.tr_rail)
              linear_models
          in
          let e = Fit.validate m tr in
          let le = Fit.validate lm tr in
          {
            rr_rail = tr.Trace.tr_rail;
            rr_mape_pct = e.Fit.e_mape_pct;
            rr_rmse_w = e.Fit.e_rmse_w;
            rr_max_ape_pct = e.Fit.e_max_ape_pct;
            rr_linear_mape_pct = le.Fit.e_mape_pct;
            rr_coeffs =
              Array.to_list
                (Array.mapi
                   (fun i n -> (n, m.Fit.f_coeffs.(i)))
                   m.Fit.f_names);
          })
        val_traces
    in
    {
      c_fit_seed = fit_seed;
      c_val_seed = val_seed;
      c_window_ms = Time.to_sec_f window *. 1000.0;
      c_windows = windows;
      c_perturb_pct = perturb_pct;
      c_drift_threshold_pct = drift_threshold_pct;
      c_rails = rails;
      c_max_mape_pct =
        List.fold_left (fun acc r -> Float.max acc r.rr_mape_pct) 0.0 rails;
      c_drift_alarms = alarms;
    }

  (* Deterministic JSON: fixed field order, %.6f floats, no wall clock. *)
  let json r =
    let b = Buffer.create 1024 in
    Buffer.add_string b "{\n";
    Printf.bprintf b "  \"fit_seed\": %d,\n" r.c_fit_seed;
    Printf.bprintf b "  \"val_seed\": %d,\n" r.c_val_seed;
    Printf.bprintf b "  \"window_ms\": %.3f,\n" r.c_window_ms;
    Printf.bprintf b "  \"windows\": %d,\n" r.c_windows;
    Printf.bprintf b "  \"perturb_pct\": %.6f,\n" r.c_perturb_pct;
    Printf.bprintf b "  \"drift_threshold_pct\": %.6f,\n"
      r.c_drift_threshold_pct;
    Buffer.add_string b "  \"rails\": [\n";
    let nrails = List.length r.c_rails in
    List.iteri
      (fun i rr ->
        Printf.bprintf b
          "    { \"name\": \"%s\", \"mape_pct\": %.6f, \"rmse_w\": %.6f, \
           \"max_ape_pct\": %.6f, \"linear_mape_pct\": %.6f,\n"
          rr.rr_rail rr.rr_mape_pct rr.rr_rmse_w rr.rr_max_ape_pct
          rr.rr_linear_mape_pct;
        Buffer.add_string b "      \"coeffs\": { ";
        List.iteri
          (fun j (n, c) ->
            Printf.bprintf b "\"%s\": %.6f%s" n c
              (if j = List.length rr.rr_coeffs - 1 then "" else ", "))
          rr.rr_coeffs;
        Printf.bprintf b " } }%s\n" (if i = nrails - 1 then "" else ",")
      )
      r.c_rails;
    Buffer.add_string b "  ],\n";
    Printf.bprintf b "  \"max_mape_pct\": %.6f,\n" r.c_max_mape_pct;
    Printf.bprintf b "  \"drift_alarms\": %d\n" r.c_drift_alarms;
    Buffer.add_string b "}\n";
    Buffer.contents b
end
