open Psbox_engine
module System = Psbox_kernel.System
module W = Psbox_workloads.Workload
module Budget = Psbox_budget.Budget
module Model = Psbox_model.Model

type result = {
  converge_err_pct : float;  (** |measured - cap| / cap at convergence *)
  neighbor_delta_pct : float;  (** co-runner completion-time change *)
  sweep : (float * float * float) list;  (** cap W, measured W, units/s *)
  multi_rail : (float option * float * float * float) list;
      (** cap W, measured W, units/s, throttle *)
}

(* Two co-run tenants on a dual-core machine. Tenant A spins forever;
   tenant B has a fixed amount of work so its completion time is the
   isolation metric. The Performance governor keeps B's clock independent
   of how hard A is throttled. *)
let mk_corun_sys ~seed =
  let sys =
    System.create ~seed ~cores:2 ~cpu_governor:Psbox_hw.Dvfs.Performance ()
  in
  let a = System.new_app sys ~name:"tenant-a" in
  let b = System.new_app sys ~name:"tenant-b" in
  ignore
    (W.spawn sys ~app:a ~name:"spin-a"
       (W.forever (fun () -> [ W.Compute (Time.ms 2); W.Count ("units", 1.0) ])));
  ignore
    (W.spawn sys ~app:b ~name:"work-b"
       (W.repeat 1500 (fun _ -> [ W.Compute (Time.ms 2); W.Count ("units", 1.0) ])));
  (sys, a, b)

(* Fit the co-run machine's counter-driven power model on a twin run of
   the same seed, so the capped run can price admission against modeled
   draw without perturbing its own timeline. *)
let corun_models ~seed =
  let sys, _, _ = mk_corun_sys ~seed in
  System.start sys;
  let rc = Model.Recorder.start sys () in
  System.run_for sys (Time.sec 1);
  let traces = Model.Recorder.stop rc in
  System.shutdown sys;
  List.map (Model.Fit.fit ~kind:Model.Fit.Per_opp) traces

(* With [model_admission], the capped run also runs the online estimator
   (a pure observer: B's completion time is untouched) and, at 600 ms,
   books tenant A's declared 2 W reservation against its modeled draw —
   the overdeclaration shows up as budget.admission.overdeclared_w. *)
let co_run ?cap ?(model_admission = false) ~seed () =
  let models = if model_admission then corun_models ~seed else [] in
  let sys, a, b = mk_corun_sys ~seed in
  System.start sys;
  let ctl =
    match cap with
    | None -> None
    | Some watts ->
        let ctl = Budget.create sys ~machine_budget_w:3.0 () in
        Budget.record_history ctl;
        Budget.set_cap ctl ~app:a.System.app_id ~watts;
        Some ctl
  in
  let est =
    match ctl with
    | Some ctl when model_admission ->
        let est = Model.Estimator.start sys ~models () in
        Budget.set_admission_estimate ctl
          (Some (fun app -> Model.Estimator.app_est_w est ~app));
        ignore
          (Sim.schedule_at (System.sim sys) (Time.ms 600) (fun () ->
               ignore (Budget.admit ctl ~app:a.System.app_id ~watts:2.0 ())));
        Some est
    | _ -> None
  in
  W.run_until_idle sys ~apps:[ b ] ~timeout:(Time.sec 20);
  let done_t = Time.to_sec_f (System.now sys) in
  let measured =
    match ctl with
    | Some c -> Budget.measured_w c ~app:a.System.app_id
    | None -> 0.0
  in
  let hist =
    match ctl with
    | Some c -> Budget.history c ~app:a.System.app_id
    | None -> []
  in
  let resv =
    match ctl with
    | Some c -> Budget.reservation c ~app:a.System.app_id
    | None -> None
  in
  Option.iter Model.Estimator.stop est;
  Option.iter Budget.stop ctl;
  System.shutdown sys;
  (done_t, measured, hist, resv)

(* Cap sweep: same tenants, but B also spins forever; after a settling
   second, measure A's draw and throughput over a 2 s window. *)
let sweep_point ~seed cap =
  let sys =
    System.create ~seed ~cores:2 ~cpu_governor:Psbox_hw.Dvfs.Performance ()
  in
  let a = System.new_app sys ~name:"tenant-a" in
  let b = System.new_app sys ~name:"tenant-b" in
  let spin = W.forever (fun () -> [ W.Compute (Time.ms 2); W.Count ("units", 1.0) ]) in
  ignore (W.spawn sys ~app:a ~name:"spin-a" spin);
  ignore (W.spawn sys ~app:b ~name:"spin-b" spin);
  System.start sys;
  let ctl = Budget.create sys () in
  (match cap with
  | Some watts -> Budget.set_cap ctl ~app:a.System.app_id ~watts
  | None -> ());
  System.run_for sys (Time.sec 2);
  let u0 = System.counter a "units" in
  System.run_for sys (Time.sec 2);
  let rate = (System.counter a "units" -. u0) /. 2.0 in
  let measured = Budget.measured_w ctl ~app:a.System.app_id in
  let thr = Budget.throttle ctl ~app:a.System.app_id in
  Budget.stop ctl;
  System.shutdown sys;
  (measured, rate, thr)

(* Multi-rail enforcement: each tenant burns CPU, GPU and WiFi in every
   iteration, so one cap on tenant A must reach through all three kernel
   subsystems at once — the CFS runtime quota, the accelerator submission
   rate and the TX byte rate. A throttle below 1.0 means every actuator is
   armed. (This is also the section that makes `psbox_sim --trace-out`
   record spans from all instrumented subsystems in one run.) *)
let multi_rail_point ~seed cap =
  let sys =
    System.create ~seed ~cores:2 ~cpu_governor:Psbox_hw.Dvfs.Performance
      ~gpu:true ~wifi:true ()
  in
  let a = System.new_app sys ~name:"tenant-a" in
  let b = System.new_app sys ~name:"tenant-b" in
  let burn =
    W.forever (fun () ->
        [
          W.Compute (Time.ms 2);
          W.Gpu_batch [ W.spec ~kind:"frame" ~work_s:0.003 () ];
          W.Send { socket = 1; bytes = 12_000 };
          W.Count ("units", 1.0);
        ])
  in
  ignore (W.spawn sys ~app:a ~name:"burn-a" burn);
  ignore (W.spawn sys ~app:b ~name:"burn-b" burn);
  System.start sys;
  let ctl = Budget.create sys () in
  (* With no cap requested, an unreachable one still makes the controller
     measure A's attributed draw without ever throttling. *)
  let watts = match cap with Some w -> w | None -> 1000.0 in
  Budget.set_cap ctl ~app:a.System.app_id ~watts;
  System.run_for sys (Time.sec 2);
  let u0 = System.counter a "units" in
  System.run_for sys (Time.sec 2);
  let rate = (System.counter a "units" -. u0) /. 2.0 in
  let measured = Budget.measured_w ctl ~app:a.System.app_id in
  let thr = Budget.throttle ctl ~app:a.System.app_id in
  Budget.stop ctl;
  System.shutdown sys;
  (measured, rate, thr)

(* Admission control needs no simulation time: it is bookkeeping over
   declared demand. *)
let admission_demo () =
  let sys = System.create () in
  let ctl = Budget.create sys ~machine_budget_w:3.0 () in
  let verdict = function
    | Budget.Admitted -> "admitted"
    | Budget.Queued -> "queued"
    | Budget.Rejected -> "rejected"
  in
  let row name app watts queue =
    let v = Budget.admit ctl ~app ~watts ~queue () in
    [ name; Common.fmt_w ~dp:1 watts; verdict v ]
  in
  (* sequenced lets: list elements would be evaluated right-to-left *)
  let ra = row "A" 1 2.0 false in
  let rb = row "B" 2 0.9 false in
  let rc = row "C" 3 1.5 true in
  let rd = row "D" 4 0.2 true in
  let re = row "E" 5 5.0 false in
  let initial = [ ra; rb; rc; rd; re ] in
  (* Releasing B frees 0.9 W -- not enough for C at the head, and D (which
     would fit) must not sneak past it. Releasing A then drains both. *)
  Budget.release ctl ~app:2;
  let after_b = (Budget.admitted ctl ~app:3, Budget.admitted ctl ~app:4) in
  Budget.release ctl ~app:1;
  let after_a = (Budget.admitted ctl ~app:3, Budget.admitted ctl ~app:4) in
  Budget.stop ctl;
  System.shutdown sys;
  (initial, after_b, after_a)

let run ?(seed = 17) () =
  let cap = 0.9 in
  (* the bookkeeping demo first: the model-informed capped run below is
     then the last writer of budget.admission.overdeclared_w, so the
     metrics snapshot reports its (non-zero) overdeclaration *)
  let initial, (c_after_b, d_after_b), (c_after_a, d_after_a) =
    admission_demo ()
  in
  let t_base, _, _, _ = co_run ~seed () in
  let t_capped, measured, hist, resv =
    co_run ~cap ~model_admission:true ~seed ()
  in
  let converge_err_pct = Float.abs (measured -. cap) /. cap *. 100.0 in
  let neighbor_delta_pct = Common.pct t_base t_capped in
  let caps = [ None; Some 1.4; Some 1.0; Some 0.6; Some 0.02 ] in
  let sweep_rows =
    List.map
      (fun c ->
        let m, r, thr = sweep_point ~seed c in
        (c, m, r, thr))
      caps
  in
  let sweep =
    List.filter_map
      (function Some c, m, r, _ -> Some (c, m, r) | None, _, _, _ -> None)
      sweep_rows
  in
  let mr_rows =
    List.map
      (fun c ->
        let m, r, thr = multi_rail_point ~seed c in
        (c, m, r, thr))
      [ None; Some 1.0 ]
  in
  let result =
    { converge_err_pct; neighbor_delta_pct; sweep; multi_rail = mr_rows }
  in
  let trace =
    let pts f = List.map (fun (t, m, c) -> (Time.to_sec_f t, f m c)) hist in
    [
      { Report.s_name = "tenant-a attributed"; s_points = pts (fun m _ -> m); s_unit = "W" };
      { Report.s_name = "cap"; s_points = pts (fun _ c -> c); s_unit = "W" };
    ]
  in
  let report =
    {
      Report.id = "budget";
      title = "Power budgets: caps enforced through the kernel (Sec. 6 extension)";
      items =
        [
          Report.table
            ~headers:[ "metric"; "value" ]
            [
              [ "cap on tenant-a"; Common.fmt_w cap ];
              [ "converged windowed mean"; Common.fmt_w ~dp:3 measured ];
              [ "convergence error"; Common.fmt_pct1 converge_err_pct ];
              [ "tenant-b completion (uncapped run)"; Common.fmt_s t_base ];
              [
                "tenant-b completion (tenant-a capped)";
                Common.fmt_s t_capped;
              ];
              [ "neighbor impact"; Report.fmt_pct neighbor_delta_pct ];
            ];
          Report.chart ~label:"control-loop convergence" trace;
          Report.table
            ~headers:[ "cap"; "measured"; "throttle"; "throughput" ]
            (List.map
               (fun (c, m, r, thr) ->
                 [
                   (match c with
                   | Some c -> Common.fmt_w c
                   | None -> "none");
                   Common.fmt_w ~dp:3 m;
                   Common.fmt_ratio thr;
                   Common.fmt_rate ~unit:"units" r;
                 ])
               sweep_rows);
          Report.Text
            "Multi-rail: each tenant burns CPU, GPU and WiFi per iteration; \
             one cap on tenant-a reaches through the CFS quota, the GPU \
             submission rate and the TX byte rate at once (throttle < 1.00 \
             means all three actuators are armed).";
          Report.table
            ~headers:[ "cap"; "measured"; "throttle"; "throughput" ]
            (List.map
               (fun (c, m, r, thr) ->
                 [
                   (match c with
                   | Some c -> Common.fmt_w c
                   | None -> "none");
                   Common.fmt_w ~dp:3 m;
                   Common.fmt_ratio thr;
                   Common.fmt_rate ~unit:"units" r;
                 ])
               mr_rows);
          Report.Text
            "Model-informed admission: the capped run fits a counter-driven \
             power model (twin run, same seed), estimates tenant-a's draw \
             online, and books its 2.0 W declaration at \
             min(declared, modeled) — the gap is the overdeclaration the \
             budget.admission.overdeclared_w gauge reports.";
          Report.table
            ~headers:[ "tenant-a reservation"; "watts" ]
            (match resv with
            | Some (declared, effective) ->
                [
                  [ "declared"; Common.fmt_w ~dp:3 declared ];
                  [ "modeled (effective)"; Common.fmt_w ~dp:3 effective ];
                  [ "overdeclared"; Common.fmt_w ~dp:3 (declared -. effective) ];
                ]
            | None -> [ [ "declared"; "none" ] ]);
          Report.table
            ~headers:[ "request"; "declared"; "verdict (3.0 W machine budget)" ]
            initial;
          Report.table
            ~headers:[ "event"; "C (1.5 W, head)"; "D (0.2 W, behind C)" ]
            [
              [
                "release B (0.9 W free)";
                (if c_after_b then "admitted" else "still queued");
                (if d_after_b then "admitted" else "still queued");
              ];
              [
                "release A (2.9 W free)";
                (if c_after_a then "admitted" else "still queued");
                (if d_after_a then "admitted" else "still queued");
              ];
            ];
          Report.Text
            "The controller squeezes only the capped tenant: its windowed \
             mean settles onto the cap while the co-runner's completion \
             time is unchanged. Infeasible caps pin the throttle at its \
             floor instead of starving the app, and the admission queue \
             drains strictly head-first.";
        ];
    }
  in
  (report, result)
