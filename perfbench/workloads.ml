(* The three workloads. Each is a closed loop with one caller: the next
   call into the simulator is issued only after the previous returns. A
   workload repeats one deterministic unit of work (a paper pass, a fleet
   batch, a soak episode) until its time is up; every repetition must
   reproduce the same simulated results. *)

module Time = Psbox_engine.Time
module Rng = Psbox_engine.Rng
module System = Psbox_kernel.System
module Task = Psbox_kernel.Task
module Entity = Psbox_kernel.Entity
module Audit = Psbox_audit.Audit
module Budget = Psbox_budget.Budget
module Model = Psbox_model.Model
module Health = Psbox_health.Health
module Psbox = Psbox_core.Psbox
module W = Psbox_workloads.Workload
module Fleet = Psbox_fleet.Fleet
module Registry = Psbox_experiments.Registry
module Report = Psbox_experiments.Report
module Telemetry = Psbox_telemetry
module Tm = Psbox_telemetry.Metrics
module H = Harness

(* ---- telemetry readings --------------------------------------------- *)

let export_values (e : Tm.export) =
  List.filter_map
    (fun (n, v) ->
      match v with
      | Tm.Counter_v f | Tm.Gauge_v f -> Some (n, f)
      | Tm.Histogram_v _ -> None)
    e

let value vals name = Option.value ~default:0.0 (List.assoc_opt name vals)

let sum_matching vals ~prefix ~suffix =
  List.fold_left
    (fun acc (n, f) ->
      if String.starts_with ~prefix n && String.ends_with ~suffix n then acc +. f
      else acc)
    0.0 vals

(* Counters sum across units; [*_max] gauges keep the maximum. *)
let merge_values a b =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (n, f) -> Hashtbl.replace tbl n f) a;
  List.iter
    (fun (n, f) ->
      match Hashtbl.find_opt tbl n with
      | None -> Hashtbl.replace tbl n f
      | Some g ->
          Hashtbl.replace tbl n
            (if String.ends_with ~suffix:"_max" n then Float.max f g else f +. g))
    b;
  Hashtbl.fold (fun n f acc -> (n, f) :: acc) tbl []

(* ---- one measured unit ---------------------------------------------- *)

type unit_stats = {
  wall : float;  (** host seconds *)
  events : float;  (** sim.events_fired *)
  sim_s : float;  (** simulated seconds, summed over machines *)
  machines : int;
  minor : float;
  promoted : float;
  steps_ms : float list;  (** host ms of each closed-loop step *)
  vals : (string * float) list;  (** the unit's telemetry counters *)
  growth : float;
      (** live-heap growth inside the unit, when the unit is long-lived
          enough to have one (a soak episode); [nan] otherwise *)
}

(* A prepared workload: its set-up and its repeatable unit. [None] from
   [next] means the unit failed and was counted as such. *)
type workload = {
  setup : unit -> unit;
      (** one set-up; timed several times before the first unit and once
          before every unit, so its median spans the whole run *)
  min_units : int;
      (** units a run makes at least, so that live-heap growth compares
          the same amount of work on every host *)
  next : unit -> unit_stats option;
  finish : unit -> unit;
}

(* Time [f], excluding the untimed probes it reports through [pause]. *)
let timed f =
  let paused = ref 0.0 in
  let pause g =
    let t0 = H.now () in
    let r = g () in
    paused := !paused +. (H.now () -. t0);
    r
  in
  let g0 = H.gc () in
  let t0 = H.now () in
  let r = f pause in
  let t1 = H.now () in
  let g1 = H.gc () in
  (r, t1 -. t0 -. !paused, g1.minor -. g0.minor, g1.promoted -. g0.promoted)

let repeat_for ~seconds f =
  let deadline = H.now () +. seconds in
  let rec go acc =
    let acc = f () :: acc in
    if H.now () < deadline then go acc else List.rev acc
  in
  go []

let time_it f =
  let t0 = H.now () in
  ignore (f ());
  H.now () -. t0

(* A fresh metric store and fresh id counters: each unit starts from the
   state a fresh process would, so its results depend on the seed only. *)
let isolated f =
  Tm.with_fresh_store (fun () ->
      Task.reset_ids ();
      Entity.reset_ids ();
      f ())

(* A soak episode measures its own growth; for the other workloads it is
   the live words after unit [2n] against those after unit [n], a fixed
   amount of work whatever the host's speed. *)
let growth units lives =
  match List.filter (fun u -> Float.is_finite u.growth) units with
  | [] ->
      let n = List.length lives in
      if n < 2 then nan else List.nth lives (n - 1) /. List.nth lives ((n / 2) - 1)
  | own -> H.median (List.map (fun u -> u.growth) own)

(* ---- paper ---------------------------------------------------------- *)

(* What reproduction users run ([psbox_sim all]): every registry entry at
   the workload seed, each report rendered into one buffer. Audit report
   mode keeps every ledger of the pass reachable for [Audit.check]; it is
   set here, inside the forked pass, so the parent keeps no machine. *)
let paper_pass ~seed c =
  isolated (fun () ->
      Audit.set_report_mode true;
      let buf = Buffer.create (1 lsl 17) in
      let fmt = Format.formatter_of_buffer buf in
      let steps =
        List.map
          (fun (e : Registry.entry) ->
            let t0 = H.now () in
            H.span ~layer:"experiments" e.e_id (fun () ->
                match H.guard c ~what:e.e_id (fun () -> e.e_run ~seed ()) with
                | Some r ->
                    H.span ~layer:"report" "render" (fun () ->
                        Report.render fmt r;
                        Format.pp_print_flush fmt ())
                | None -> ());
            (H.now () -. t0) *. 1e3)
          Registry.all
      in
      let ledgers = Audit.instances () in
      List.iter
        (fun a ->
          H.check c
            ~what:(Printf.sprintf "audit conservation, machine %d"
                     (System.uid (Audit.system a)))
            (Audit.check a = Ok ()))
        ledgers;
      let sim_s =
        H.sum
          (List.map
             (fun a -> Time.to_sec_f (System.now (Audit.system a)))
             ledgers)
      in
      (Buffer.contents buf, steps, sim_s, List.length ledgers, Tm.values ()))

(* Set-up: boot each preset machine the registry builds. *)
let boot_presets ~seed =
  isolated (fun () ->
      List.iter
        (fun sys ->
          System.start sys;
          System.run_for sys (Time.ms 1);
          System.shutdown sys)
        [ System.am57 ~seed (); System.bbb ~seed (); System.phone ~seed () ])

(* Each pass runs in a forked child: [psbox_sim all] users start every
   study in a fresh process, and the accelerator command ids that fig3 and
   fig7 print come from a process-wide counter, so a second pass in one
   process would renumber them. *)
let paper_unit ~seed c d =
  let child () =
    let local = H.checks () in
    let (report, steps, sim_s, machines, vals), wall, minor, promoted =
      timed (fun _ -> paper_pass ~seed local)
    in
    let stats =
      {
        wall;
        events = value vals "sim.events_fired";
        sim_s;
        machines;
        minor;
        promoted;
        steps_ms = steps;
        vals;
        growth = nan;
      }
    in
    (Digest.to_hex (Digest.string report), stats, local)
  in
  match H.in_child child with
  | Error e ->
      H.check c ~what:("paper pass: " ^ e) false;
      None
  | Ok (digest, stats, local) ->
      H.merge_checks c local;
      H.check_digest c d digest;
      Some stats

let paper ~seed c d =
  Audit.enable ();
  {
    setup = (fun () -> boot_presets ~seed);
    min_units = 6;
    next = (fun () -> paper_unit ~seed c d);
    finish = Audit.disable;
  }

(* ---- fleet ---------------------------------------------------------- *)

let fleet_scenario = "mixed"
let fleet_devices = 48
let fleet_device_sim_s = 2.0

(* One batch; returns the summary with its simulate and reduce times. *)
let fleet_batch ~jobs ~seed =
  let t0 = H.now () in
  let devs =
    H.span ~layer:"fleet" "simulate" (fun () ->
        Fleet.run_devices ~jobs ~health:true ~scenario:fleet_scenario
          ~devices:fleet_devices ~seed ())
  in
  let t1 = H.now () in
  let s =
    H.span ~layer:"fleet" "reduce" (fun () ->
        Fleet.summarize ~scenario:fleet_scenario ~seed devs)
  in
  (s, t1 -. t0, H.now () -. t1)

let fleet_unit ~jobs ~seed c d =
  let (s, _, _), wall, minor, promoted = timed (fun _ -> fleet_batch ~jobs ~seed) in
  (* Health rides every device with the default pack, which includes the
     audit-vs-kernel-ledger conservation probe: a fired incident of that
     rule anywhere in the fleet is a failed conservation check. *)
  H.check c ~what:"fleet audit conservation"
    (Option.value ~default:0.0
       (List.assoc_opt "audit.conservation" s.s_incident_rates)
    = 0.0);
  H.check_digest c d (Digest.to_hex (Digest.string (Fleet.json_string s)));
  (* device counters live in per-device stores; the summary's merged
     export is the only place they all meet *)
  let vals = export_values s.s_metrics in
  {
    wall;
    events = value vals "sim.events_fired";
    sim_s = float_of_int fleet_devices *. fleet_device_sim_s;
    machines = fleet_devices;
    minor;
    promoted;
    steps_ms = [ wall *. 1e3 ];
    vals;
    growth = nan;
  }

(* Set-up: spin the domain pool up once, one device per domain. *)
let fleet ~seed c d =
  let jobs = Provenance.nproc in
  {
    min_units = 24;
    setup =
      (fun () ->
        ignore
          (Fleet.run_devices ~jobs ~health:true ~scenario:fleet_scenario
             ~devices:jobs ~seed ()));
    next =
      (fun () -> H.guard c ~what:"fleet batch" (fun () -> fleet_unit ~jobs ~seed c d));
    finish = ignore;
  }

(* ---- soak ----------------------------------------------------------- *)

(* Which observers ride the soak machine. The end-to-end soak runs them
   all; the traced run stacks them one at a time. *)
type observers = {
  audit : bool;
  telemetry : bool;
  budget : bool;
  model : bool;
  health : bool;
}

let all_observers =
  { audit = true; telemetry = true; budget = true; model = true; health = true }

type soak = {
  sys : System.t;
  box : Psbox.t;
  ledger : Audit.t option;
  ctl : Budget.t option;
  est : Model.Estimator.t option;
  eng : Health.t option;
  mutable reads : float list;  (** newest first *)
}

type soak_params = {
  intensity : float;  (** render compute-burst scale *)
  cap_w : float;  (** render tenant's budget cap *)
  duty_ms : int;  (** CPU duty-cycle busy time per period *)
  period_ms : int;
}

(* The seed varies the inputs but keeps the amount of work per simulated
   second within a few percent, so runs on different seeds compare. *)
let soak_params ~seed =
  let rng = Rng.create ~seed:(Rng.derive ~seed 0) in
  let intensity = Rng.uniform rng ~lo:0.9 ~hi:1.1 in
  let cap_w = Rng.uniform rng ~lo:1.0 ~hi:1.3 in
  let duty_ms = 3 + Rng.int rng 2 in
  let period_ms = 10 + Rng.int rng 2 in
  { intensity; cap_w; duty_ms; period_ms }

(* Boot the soak machine: CPU + GPU + WiFi, a capped render loop and a CPU
   duty-cycle, a psbox around the render tenant, and the chosen
   observers. *)
let build_soak ~seed ~models obs =
  Task.reset_ids ();
  Entity.reset_ids ();
  Telemetry.set_enabled obs.telemetry;
  let p = soak_params ~seed in
  let sys =
    System.create ~seed:(Rng.derive ~seed 1) ~cores:2 ~gpu:true ~wifi:true ()
  in
  let ledger = if obs.audit then Some (Audit.attach sys) else None in
  let render = System.new_app sys ~name:"render" in
  let duty = System.new_app sys ~name:"duty" in
  ignore
    (W.spawn sys ~app:render ~name:"frame"
       (W.forever (fun () ->
            [
              W.Compute (Time.of_sec_f (0.0012 *. p.intensity));
              W.Gpu_batch [ W.spec ~kind:"frame" ~work_s:0.002 () ];
              W.Send { socket = 1; bytes = 8_000 };
              W.Count ("frames", 1.0);
            ])));
  ignore
    (W.spawn sys ~app:duty ~name:"duty" ~core:1
       (W.forever (fun () ->
            [
              W.Compute (Time.ms p.duty_ms);
              W.Sleep (Time.ms (p.period_ms - p.duty_ms));
              W.Count ("units", 1.0);
            ])));
  let box =
    Psbox.create sys ~app:render.System.app_id ~hw:[ Psbox.Cpu; Gpu; Wifi ]
  in
  System.start sys;
  let ctl =
    if obs.budget then begin
      let ctl = Budget.create sys () in
      Budget.set_cap ctl ~app:render.System.app_id ~watts:p.cap_w;
      Some ctl
    end
    else None
  in
  let est =
    if obs.model && models <> [] then Some (Model.Estimator.start sys ~models ())
    else None
  in
  let eng =
    if obs.health then begin
      let eng = Health.create (System.sim sys) () in
      Health.add_rules eng (Health.default_pack sys);
      Some eng
    end
    else None
  in
  { sys; box; ledger; ctl; est; eng; reads = [] }

let half_second = Time.ms 500

(* One closed-loop step: one simulated second, outside the box for the
   first half and inside for the second, then a meter read and leave. *)
let soak_step s =
  H.span ~layer:"kernel" "run_for" (fun () -> System.run_for s.sys half_second);
  H.span ~layer:"core" "enter" (fun () -> Psbox.enter s.box);
  H.span ~layer:"kernel" "run_for" (fun () -> System.run_for s.sys half_second);
  let mj = H.span ~layer:"core" "read" (fun () -> Psbox.read_mj s.box) in
  s.reads <- mj :: s.reads;
  H.span ~layer:"core" "leave" (fun () -> Psbox.leave s.box)

(* [Psbox.destroy] also drops the psbox module's strong reference to the
   machine; without it every episode's machine would stay live. *)
let stop_soak s =
  Psbox.destroy s.box;
  Option.iter Health.stop s.eng;
  Option.iter Model.Estimator.stop s.est;
  Option.iter Budget.stop s.ctl;
  System.shutdown s.sys;
  Telemetry.set_enabled true

let soak_digest s =
  let b = Buffer.create 4096 in
  List.iter
    (fun (rail, j) -> Printf.bprintf b "rail %s %.17g\n" rail j)
    (System.rail_energy_table s.sys);
  Option.iter
    (fun a ->
      List.iter
        (fun rail ->
          List.iter
            (fun (r : Audit.row) ->
              Printf.bprintf b "row %s %d %s %.17g %b\n" rail r.r_app
                (Audit.cause_label r.r_cause) r.r_j r.r_residual)
            (Audit.rows a ~rail))
        (Audit.rails a))
    s.ledger;
  List.iter (fun mj -> Printf.bprintf b "read %.17g\n" mj) (List.rev s.reads);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Fit per-OPP power models on a short recording of the soak machine
   itself, for the estimator to run against. *)
let calibration_s = 6

let calibrate ~seed =
  let s =
    build_soak ~seed ~models:[]
      { all_observers with model = false; health = false }
  in
  let rec_ = Model.Recorder.start s.sys () in
  System.run_for s.sys (Time.sec calibration_s);
  let traces = Model.Recorder.stop rec_ in
  stop_soak s;
  let t0 = H.now () in
  let models =
    H.span ~layer:"observers" "model.fit" (fun () ->
        List.map (fun tr -> Model.Fit.fit ~kind:Model.Fit.Per_opp tr) traces)
  in
  (models, H.now () -. t0)

(* Simulated seconds per soak episode. The halfway point sits past the
   rails' 120 s retention window, so history kept anywhere else shows up
   as growth between the two live-heap readings. *)
let soak_episode_s = 300

(* One episode on a fresh machine. [d] checks the digest of the simulated
   results (the end-to-end soak); [inside] reads the stopped machine while
   its metric store is still current. *)
let soak_episode ?(length = soak_episode_s) ?d ?(inside = ignore) ~seed ~models
    obs c =
  isolated (fun () ->
      let (s, steps, mid), wall, minor, promoted =
        timed (fun pause ->
            let s = build_soak ~seed ~models obs in
            let mid = ref nan in
            let steps =
              List.init length (fun k ->
                  let t0 = H.now () in
                  ignore (H.guard c ~what:"soak step" (fun () -> soak_step s));
                  let dt = (H.now () -. t0) *. 1e3 in
                  if k + 1 = length / 2 then mid := pause H.live_words;
                  dt)
            in
            (s, steps, !mid))
      in
      let end_live = H.live_words () in
      Option.iter
        (fun a -> H.check c ~what:"soak audit conservation" (Audit.check a = Ok ()))
        s.ledger;
      Option.iter (fun d -> H.check_digest c d (soak_digest s)) d;
      stop_soak s;
      inside s;
      let vals = Tm.values () in
      {
        wall;
        events = value vals "sim.events_fired";
        sim_s = float_of_int length;
        machines = 1;
        minor;
        promoted;
        steps_ms = steps;
        vals;
        growth = end_live /. mid;
      })

(* Set-up: calibrate the estimator's models and boot the full machine. *)
let soak_setup ~seed =
  isolated (fun () ->
      let models, _ = calibrate ~seed in
      let s = build_soak ~seed ~models all_observers in
      stop_soak s;
      models)

let soak ~seed c d =
  let models = ref [] in
  {
    setup = (fun () -> models := soak_setup ~seed);
    min_units = 1;
    next = (fun () -> Some (soak_episode ~d ~seed ~models:!models all_observers c));
    finish = ignore;
  }

(* ---- end-to-end metrics --------------------------------------------- *)

let per xs f g = List.map (fun u -> f u /. g u) xs

(* Rates and per-event costs are medians of per-unit ratios, so one
   disturbed unit cannot move them. *)
let end_to_end (setups, us, lives, peak_mb) =
  let steps = List.concat_map (fun u -> u.steps_ms) us in
  [
    H.m "setup_s" "s" (H.median setups);
    H.m "wall_s" "s" (H.median (List.map (fun u -> u.wall) us));
    H.m "events_per_s" "1/s" (H.median (per us (fun u -> u.events) (fun u -> u.wall)));
    H.m "sim_s_per_host_s" "s/s" (H.median (per us (fun u -> u.sim_s) (fun u -> u.wall)));
    H.m "devices_per_s" "1/s"
      (H.median (per us (fun u -> float_of_int u.machines) (fun u -> u.wall)));
    H.m "step_ms_p50" "ms" (H.quantile steps 0.5);
    H.m "step_ms_p95" "ms" (H.quantile steps 0.95);
    H.m "alloc_words_per_event" "words"
      (H.median (per us (fun u -> u.minor) (fun u -> u.events)));
    H.m "promoted_words_per_event" "words"
      (H.median (per us (fun u -> u.promoted) (fun u -> u.events)));
    H.m "peak_heap_mb" "MB" peak_mb;
    H.m "live_heap_growth" "ratio" (growth us lives);
  ]

let names = [ "paper"; "fleet"; "soak" ]

let prepare name ~seed c d =
  match name with
  | "paper" -> paper ~seed c d
  | "fleet" -> fleet ~seed c d
  | "soak" -> soak ~seed c d
  | other -> invalid_arg ("unknown workload " ^ other)

let initial_setups = 5

(* Run units until [seconds] have passed and [w.min_units] are done, each
   after one timed set-up. After each of the first [min_units], read the
   program's live words: a full major collection, less what the harness
   itself keeps. The heap peak is read after those units too: the major
   heap never shrinks, so a later reading would grow with the host's
   speed. *)
let units ~seconds w =
  let setups = List.init initial_setups (fun _ -> time_it w.setup) in
  let deadline = H.now () +. seconds in
  let peak = ref nan in
  let rec go n setups acc lives =
    let setups = time_it w.setup :: setups in
    let acc = match w.next () with Some u -> u :: acc | None -> acc in
    let lives =
      if n >= w.min_units then lives
      else
        let kept = Obj.reachable_words (Obj.repr (setups, acc, lives)) in
        (H.live_words () -. float_of_int kept) :: lives
    in
    if n + 1 = w.min_units then peak := H.peak_heap_mb ();
    if H.now () < deadline || n + 1 < w.min_units then
      go (n + 1) setups acc lives
    else (setups, List.rev acc, List.rev lives, !peak)
  in
  go 0 setups [] []

let run_workload name ~seed ~seconds c d =
  let w = prepare name ~seed c d in
  Fun.protect ~finally:w.finish (fun () ->
      end_to_end (units ~seconds w))
