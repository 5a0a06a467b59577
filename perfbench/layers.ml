(* The traced run: per-layer metrics. It alternates untraced units of the
   workload with traced ones, which have harness spans around every call
   into a layer, and then runs a fixed set of layer probes. Every traced
   run reports every per-layer metric, whichever workload it was given;
   the workload decides only the engine, kernel and hardware counts and
   the trace overhead. *)

open Workloads
module H = Harness

let spans_since id = List.filter (fun s -> s.H.sp_id >= id) !H.recorded
let dur_ms s = (s.H.sp_t1 -. s.H.sp_t0) *. 1e3
let named name spans = List.filter (fun s -> s.H.sp_name = name) spans

let traced f =
  H.tracing := true;
  Fun.protect ~finally:(fun () -> H.tracing := false) f

let probe name f = traced (fun () -> H.span ~layer:"harness" ("probe." ^ name) f)

(* ---- the workload, untraced then traced ----------------------------- *)

(* Per-unit counts: the units of one run are identical, so the mean over
   units does not depend on how many fitted in the run. *)
let workload_counts units =
  let n = float_of_int (List.length units) in
  let vals = List.fold_left (fun acc u -> merge_values acc u.vals) [] units in
  let per name = value vals name /. n in
  let sum ~prefix ~suffix = sum_matching vals ~prefix ~suffix /. n in
  [
    H.m "engine.events_fired" "count" (per "sim.events_fired");
    H.m "engine.events_cancelled" "count" (per "sim.events_cancelled");
    H.m "engine.tombstones_reaped" "count" (per "sim.tombstones_reaped");
    H.m "engine.queue_depth_max" "count" (value vals "sim.queue_depth_max");
    H.m "kernel.events.smp" "count" (sum ~prefix:"sim.events.smp." ~suffix:"");
    H.m "kernel.events.accel" "count"
      (sum ~prefix:"accel." ~suffix:".dispatched"
      +. sum ~prefix:"accel." ~suffix:".completed");
    H.m "kernel.events.net" "count"
      (per "net.tx_packets" +. per "net.rx_packets");
    H.m "hw.events.dvfs" "count" (sum ~prefix:"sim.events.dvfs." ~suffix:"");
    H.m "hw.dvfs_transitions" "count" (sum ~prefix:"dvfs." ~suffix:".transitions");
  ]

let traced_workload ~workload ~seed ~seconds c d =
  let w = prepare workload ~seed c d in
  Fun.protect ~finally:w.finish (fun () ->
      (* alternate untraced and traced units so drift hits both alike *)
      let pairs =
        repeat_for ~seconds (fun () ->
            let u = w.next () in
            let t =
              traced (fun () ->
                  H.span ~layer:"harness" ("workload." ^ workload) w.next)
            in
            (u, t))
      in
      let untraced = List.filter_map fst pairs
      and traced = List.filter_map snd pairs in
      let wall us = H.median (List.map (fun u -> u.wall) us) in
      let overhead =
        (wall traced -. wall untraced) /. wall untraced *. 100.0
      in
      H.m "harness.trace_overhead_pct" "%" overhead :: workload_counts traced)

(* ---- experiments ---------------------------------------------------- *)

(* One traced paper pass; it forks, so it must run before anything that
   spawns a domain. *)
let experiments ~seed c =
  let from = !H.next_id in
  let d = H.digest ~what:"paper" ~recorded:None in
  let w = paper ~seed c d in
  Fun.protect ~finally:w.finish (fun () ->
      ignore (w.next ()));
  let spans = spans_since from in
  List.map
    (fun (e : Registry.entry) ->
      H.m
        (Printf.sprintf "experiments.%s_ms" e.e_id)
        "ms"
        (H.sum (List.map dur_ms (named e.e_id spans))))
    Registry.all
  @ [
      H.m "experiments.render_ms" "ms"
        (H.sum (List.map dur_ms (named "render" spans)));
    ]

(* ---- kernel boot ---------------------------------------------------- *)

(* System.create through System.start, on every machine shape the
   workloads build. *)
let boot_shapes ~seed =
  [
    (fun () -> System.am57 ~seed ());
    (fun () -> System.bbb ~seed ());
    (fun () -> System.phone ~seed ());
    (fun () -> System.create ~seed ~cores:2 ~gpu:true ~wifi:true ());
  ]

let kernel_boot ~seed =
  let samples =
    isolated (fun () ->
        List.concat_map
          (fun make ->
            List.init 5 (fun _ ->
                H.span ~layer:"kernel" "boot" (fun () ->
                    let w0 = Gc.minor_words () and t0 = H.now () in
                    let sys = make () in
                    System.start sys;
                    let ms = (H.now () -. t0) *. 1e3 in
                    let words = Gc.minor_words () -. w0 in
                    System.shutdown sys;
                    (ms, words))))
          (boot_shapes ~seed))
  in
  [
    H.m "kernel.boot_ms" "ms" (H.median (List.map fst samples));
    H.m "kernel.boot_words" "words" (H.median (List.map snd samples));
  ]

(* ---- observer stacking on the soak machine -------------------------- *)

(* As long as a soak episode, so each layer's growth compares with the
   end-to-end soak's. *)
let stack_length = soak_episode_s

(* Bare, then each observer added on top of the previous configuration. *)
let stack =
  let bare =
    { audit = false; telemetry = false; budget = false; model = false; health = false }
  in
  [
    ("kernel", bare);
    ("audit", { bare with audit = true });
    ("telemetry", { bare with audit = true; telemetry = true });
    ("budget", { bare with audit = true; telemetry = true; budget = true });
    ("model", { all_observers with health = false });
    ("health", all_observers);
  ]

(* Events are counted by telemetry, so configurations that run with it off
   get their count from an untimed replay with it on: no observer
   schedules events of its own before the budget does, and telemetry
   never does. *)
let stacking ~seed ~models c =
  let run obs = soak_episode ~length:stack_length ~seed ~models obs c in
  let rows =
    List.map
      (fun (name, obs) ->
        let u = run obs in
        let events =
          if obs.telemetry then u.events
          else (run { obs with telemetry = true }).events
        in
        ( name,
          u.wall *. 1e3 /. u.sim_s,
          u.minor /. events,
          u.growth ))
      stack
  in
  let rec deltas = function
    | (_, ms0, w0, g0) :: ((name, ms1, w1, g1) :: _ as rest) ->
        H.m (name ^ ".delta_ms_per_sim_s") "ms" (ms1 -. ms0)
        :: H.m (name ^ ".delta_words_per_event") "words" (w1 -. w0)
        :: H.m (name ^ ".delta_heap_growth") "ratio" (g1 -. g0)
        :: deltas rest
    | _ -> []
  in
  match rows with
  | (_, ms, words, _) :: _ ->
      H.m "kernel.run_ms_per_sim_s" "ms" ms
      :: H.m "kernel.run_words_per_event" "words" words
      :: deltas rows
  | [] -> []

(* ---- core and observer read-outs ------------------------------------ *)

let core_length = 60

let core_and_readouts ~seed ~models ~fit_ms c =
  let from = !H.next_id in
  let readouts = ref [] in
  let inside s =
    let time name layer f =
      let t0 = H.now () in
      H.span ~layer name (fun () -> ignore (f ()));
      (H.now () -. t0) *. 1e3
    in
    let audit_ms =
      time "audit.read" "observers" (fun () ->
          Option.iter
            (fun a ->
              List.iter (fun rail -> ignore (Audit.rows a ~rail)) (Audit.rails a);
              List.iter
                (fun (app : System.app) -> ignore (Audit.app_blame a ~app:app.app_id))
                (System.apps s.sys))
            s.ledger)
    in
    let export_ms =
      time "telemetry.export" "observers" (fun () ->
          Telemetry.Openmetrics.of_export (Tm.export ()))
    in
    readouts :=
      [
        H.m "core.balloons" "count" (Option.value ~default:0.0 (Tm.find "psbox.balloons"));
        H.m "audit.read_ms" "ms" audit_ms;
        H.m "model.fit_ms" "ms" fit_ms;
        H.m "health.evals" "count"
          (float_of_int (Option.fold ~none:0 ~some:Health.evals s.eng));
        H.m "telemetry.export_ms" "ms" export_ms;
      ]
  in
  ignore (soak_episode ~length:core_length ~inside ~seed ~models all_observers c);
  let spans = spans_since from in
  let us name = List.map (fun s -> dur_ms s *. 1e3) (named name spans) in
  H.m "core.toggle_us" "us" (H.median (us "enter" @ us "leave"))
  :: H.m "core.read_us" "us" (H.median (us "read"))
  :: !readouts

(* ---- fleet ---------------------------------------------------------- *)

let fleet_sequential = 16
let fleet_reps = 3

let fleet_probe ~seed =
  let device i =
    let w0 = Gc.minor_words () and t0 = H.now () in
    ignore
      (H.span ~layer:"fleet" "device" (fun () ->
           Fleet.run_device ~health:true ~scenario:fleet_scenario ~fleet_seed:seed i));
    ((H.now () -. t0) *. 1e3, Gc.minor_words () -. w0)
  in
  let devs = List.init fleet_sequential device in
  let ms = List.map fst devs in
  let batch jobs = List.init fleet_reps (fun _ -> fleet_batch ~jobs ~seed) in
  let one = batch 1 and all = batch Provenance.nproc in
  let simulate_s xs = H.median (List.map (fun (_, t, _) -> t) xs) in
  [
    H.m "fleet.simulate_s" "s" (simulate_s all);
    H.m "fleet.reduce_ms" "ms" (H.median (List.map (fun (_, _, t) -> t *. 1e3) all));
    H.m "fleet.device_ms_p50" "ms" (H.quantile ms 0.5);
    H.m "fleet.device_ms_p95" "ms" (H.quantile ms 0.95);
    H.m "fleet.device_words" "words" (H.median (List.map snd devs));
    H.m "fleet.scaling_efficiency" "ratio"
      (simulate_s one /. (float_of_int Provenance.nproc *. simulate_s all));
  ]

(* ---- the traced run ------------------------------------------------- *)

let self_layers =
  [ "harness"; "experiments"; "report"; "kernel"; "core"; "observers"; "fleet" ]

let out_dir = ".perfbench-out"

let run ~workload ~seed ~seconds c d =
  H.run_id := Printf.sprintf "%s-%d-%d" workload seed (Unix.getpid ());
  (* forks first: OCaml cannot fork once a domain has been spawned *)
  let exp = probe "experiments" (fun () -> experiments ~seed c) in
  let wl = traced_workload ~workload ~seed ~seconds c d in
  let boot = probe "kernel" (fun () -> kernel_boot ~seed) in
  let models, fit_s = probe "model" (fun () -> isolated (fun () -> calibrate ~seed)) in
  (* untraced: spans inside would weigh on the deltas being measured *)
  let stacked = stacking ~seed ~models c in
  let core =
    probe "core" (fun () -> core_and_readouts ~seed ~models ~fit_ms:(fit_s *. 1e3) c)
  in
  let fleet = probe "fleet" (fun () -> fleet_probe ~seed) in
  let self = H.self_ms_by_layer !H.recorded in
  let selfs =
    List.map
      (fun l ->
        H.m
          (Printf.sprintf "layer.%s.self_ms" l)
          "ms"
          (Option.value ~default:0.0 (Hashtbl.find_opt self l)))
      self_layers
  in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  H.write_spans
    (Filename.concat out_dir (Printf.sprintf "spans-%s-%d.json" workload seed))
    ~provenance:
      (Provenance.json ~workload ~seed ~seconds:(int_of_float seconds) ~trace:true)
    !H.recorded;
  wl @ boot @ stacked @ core @ fleet @ exp @ selfs
