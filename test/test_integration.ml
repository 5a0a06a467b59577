(* Integration tests: the paper's headline claims, end to end, in reduced
   form. These exercise the same code paths as `psbox_sim all`. *)
open Psbox_engine
module System = Psbox_kernel.System
module Psbox = Psbox_core.Psbox
module W = Psbox_workloads.Workload
module Split = Psbox_accounting.Split
module Cpu_apps = Psbox_workloads.Cpu_apps

let check_bool = Alcotest.(check bool)

(* Fig 3(a): two instances draw far less than 2x one instance. *)
let test_entanglement_spatial () =
  let a, _ = Psbox_experiments.Fig3.run_a ~seed:5 () in
  check_bool "naive doubling overestimates" true
    (a.Psbox_experiments.Fig3.doubled_w
     > a.Psbox_experiments.Fig3.two_instances_w *. 1.2)

(* Fig 3(b): asynchronous commands overlap. *)
let test_entanglement_async () =
  let b, _ = Psbox_experiments.Fig3.run_b ~seed:6 () in
  check_bool "commands 1 and 2 overlap" true (b.Psbox_experiments.Fig3.overlap_s > 0.001)

(* Fig 3(c): lingering DVFS state changes the same burst's energy. *)
let test_entanglement_lingering () =
  let c, _ = Psbox_experiments.Fig3.run_c ~seed:7 () in
  let open Psbox_experiments.Fig3 in
  check_bool "after-busy differs from after-idle" true
    (Float.abs (c.after_busy_mj -. c.after_idle_mj) /. c.after_idle_mj > 0.03)

(* Fig 6 (CPU row, reduced): psbox observations stay consistent across
   co-runners while usage-based accounting swings. *)
let test_fig6_cpu_shape () =
  let psbox_mj ~co =
    let sys = System.create ~seed:77 ~cores:2 () in
    let main = System.new_app sys ~name:"calib3d" in
    ignore (Cpu_apps.calib3d sys ~iterations:40 ~threads:1 main);
    if co then
      ignore
        (Cpu_apps.dedup sys ~chunks:1_000_000 ~threads:1
           (System.new_app sys ~name:"dedup"));
    let box = Psbox.create sys ~app:main.System.app_id ~hw:[ Psbox.Cpu ] in
    System.start sys;
    Psbox.enter box;
    W.run_until_idle sys ~apps:[ main ] ~timeout:(Time.sec 10);
    let mj = Psbox.read_mj box in
    Psbox.leave box;
    System.shutdown sys;
    mj
  in
  let alone = psbox_mj ~co:false and co = psbox_mj ~co:true in
  check_bool
    (Printf.sprintf "psbox consistent across co-runners (%.0f vs %.0f)" alone co)
    true
    (Float.abs (co -. alone) /. alone < 0.10)

(* Fig 8 (reduced): sandboxing one CPU app leaves siblings' throughput. *)
let test_fig8_cpu_confinement () =
  let r = Psbox_experiments.Fig8.cpu ~seed:3 () in
  let open Psbox_experiments.Fig8 in
  List.iter
    (fun i ->
      if not i.i_sandboxed then
        check_bool
          (Printf.sprintf "%s unaffected (%.1f -> %.1f)" i.i_name i.i_before
             i.i_after)
          true
          (Float.abs (i.i_after -. i.i_before) /. i.i_before < 0.08))
    r.h_instances

(* Side channel (reduced): the shared view classifies far above chance; the
   psbox view does not. *)
let test_sidechannel_closed () =
  let _, r = Psbox_experiments.Sidechan.run ~seed:19 ~trials_per_site:1 () in
  let open Psbox_experiments.Sidechan in
  check_bool
    (Printf.sprintf "attack works without psbox (%.0f%%)" (r.success_no_psbox *. 100.))
    true
    (r.success_no_psbox >= 3.0 *. r.random_guess);
  check_bool
    (Printf.sprintf "psbox closes the channel (%.0f%%)" (r.success_psbox *. 100.))
    true
    (r.success_psbox <= 2.0 *. r.random_guess)

(* Fig 7 (reduced): with psbox, no foreign DSP command overlaps the
   sandboxed app's commands. *)
let test_fig7_dsp_boundaries () =
  let _, r = Psbox_experiments.Fig7.run ~seed:9 () in
  let open Psbox_experiments.Fig7 in
  check_bool "commands overlap freely without psbox" true r.dsp_overlap_wo_psbox;
  check_bool "no overlap with psbox" false r.dsp_overlap_w_psbox;
  check_bool "balloons were used" true (r.dsp_balloon_count > 0)

(* Fig 9 (reduced): the fidelity ladder spans a wide power range. *)
let test_fig9_power_range () =
  let lo = ref infinity and hi = ref 0.0 in
  List.iter
    (fun level ->
      let sys = System.create ~seed:(17 + level) ~cores:2 ~cpu_idle_w:0.06 () in
      let vr = System.new_app sys ~name:"vr" in
      ignore (Psbox_workloads.Vr_app.gesture sys ~frames:1_000_000 vr);
      let r = System.new_app sys ~name:"render" in
      let cost = if level = 0 then 1.0 else 14.0 in
      ignore
        (W.spawn sys ~app:r ~name:"render" ~core:0
           (W.forever (fun () ->
                [
                  W.Compute (Time.of_sec_f (cost /. 1e3));
                  W.Sleep (max (Time.ms 1) (Time.ms 33 - Time.of_sec_f (cost /. 1e3)));
                ])));
      System.start sys;
      System.run_for sys (Time.ms 300);
      let box = Psbox.create sys ~app:r.System.app_id ~hw:[ Psbox.Cpu ] in
      Psbox.enter box;
      let t0 = System.now sys in
      System.run_for sys (Time.sec 2);
      let w = Psbox.read_mj box /. 1e3 /. Time.to_sec_f (System.now sys - t0) in
      lo := Float.min !lo w;
      hi := Float.max !hi w;
      Psbox.leave box;
      System.shutdown sys)
    [ 0; 4 ];
  check_bool
    (Printf.sprintf "wide power range (%.0f..%.0f mW)" (!lo *. 1e3) (!hi *. 1e3))
    true
    (!hi /. !lo > 4.0)

let suite =
  [
    ("fig3a spatial entanglement", `Quick, test_entanglement_spatial);
    ("fig3b async entanglement", `Quick, test_entanglement_async);
    ("fig3c lingering state", `Quick, test_entanglement_lingering);
    ("fig6 cpu consistency shape", `Slow, test_fig6_cpu_shape);
    ("fig8 cpu confinement", `Slow, test_fig8_cpu_confinement);
    ("sidechannel closed by psbox", `Slow, test_sidechannel_closed);
    ("fig7 dsp balloon boundaries", `Slow, test_fig7_dsp_boundaries);
    ("fig9 power range", `Slow, test_fig9_power_range);
  ]
