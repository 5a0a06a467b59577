(* Tests for the workload DSL and the benchmark app generators. *)
open Psbox_engine
module System = Psbox_kernel.System
module W = Psbox_workloads.Workload
module Cpu_apps = Psbox_workloads.Cpu_apps
module Gpu_apps = Psbox_workloads.Gpu_apps
module Dsp_apps = Psbox_workloads.Dsp_apps
module Wifi_apps = Psbox_workloads.Wifi_apps
module Websites = Psbox_workloads.Websites
module Vr_app = Psbox_workloads.Vr_app
module Psbox = Psbox_core.Psbox

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float_gt msg lo x = check_bool (Printf.sprintf "%s (%.2f)" msg x) true (x > lo)

let test_repeat_exits () =
  let sys = System.create ~cores:1 () in
  let a = System.new_app sys ~name:"a" in
  ignore
    (W.spawn sys ~app:a ~name:"t" ~core:0
       (W.repeat 5 (fun i -> [ W.Compute (Time.ms 1); W.Count ("i", float_of_int i) ])));
  System.start sys;
  W.run_until_idle sys ~apps:[ a ] ~timeout:(Time.sec 1);
  check_bool "exited" false (W.app_alive sys a);
  Alcotest.(check (float 1e-9)) "counted 0+1+2+3+4" 10.0 (System.counter a "i");
  System.shutdown sys

let test_effect_and_counters () =
  let sys = System.create ~cores:1 () in
  let a = System.new_app sys ~name:"a" in
  let hits = ref 0 in
  ignore
    (W.spawn sys ~app:a ~name:"t" ~core:0
       (W.repeat 3 (fun _ -> [ W.Effect (fun () -> incr hits); W.Compute (Time.ms 1) ])));
  System.start sys;
  W.run_until_idle sys ~apps:[ a ] ~timeout:(Time.sec 1);
  check_int "effects ran" 3 !hits;
  System.shutdown sys

let test_gpu_batch_blocks_until_done () =
  let sys = System.create ~cores:1 ~gpu:true () in
  let a = System.new_app sys ~name:"a" in
  let t_done = ref Time.zero in
  ignore
    (W.spawn sys ~app:a ~name:"t" ~core:0
       (W.repeat 1 (fun _ ->
            [
              W.Gpu_batch
                [ W.spec ~kind:"k" ~work_s:0.010 (); W.spec ~kind:"k" ~work_s:0.010 () ];
              W.Effect (fun () -> t_done := System.now sys);
            ])));
  System.start sys;
  W.run_until_idle sys ~apps:[ a ] ~timeout:(Time.sec 2);
  (* both commands (10 ms each, overlapping on 4 units) must complete
     before the effect runs; at the lowest GPU OPP they are slower *)
  check_bool "waited for the batch" true (!t_done >= Time.ms 10);
  System.shutdown sys

(* A batch of zero commands has nothing to wait for: the task goes straight
   on instead of blocking for a completion that never comes. *)
let test_empty_batch_continues () =
  let sys = System.create ~cores:1 ~gpu:true ~dsp:true () in
  let a = System.new_app sys ~name:"a" in
  ignore
    (W.spawn sys ~app:a ~name:"t" ~core:0
       (W.repeat 3 (fun _ ->
            [
              W.Gpu_batch [];
              W.Dsp_batch [];
              W.Compute (Time.ms 1);
              W.Count ("iterations", 1.0);
            ])));
  System.start sys;
  W.run_until_idle sys ~apps:[ a ] ~timeout:(Time.sec 1);
  Alcotest.(check (float 0.0)) "every iteration ran" 3.0
    (System.counter a "iterations");
  check_bool "exited" false (W.app_alive sys a);
  System.shutdown sys

(* Async submission: the task proceeds at acceptance, before completion. *)
let test_gpu_async_proceeds () =
  let sys = System.create ~cores:1 ~gpu:true () in
  let a = System.new_app sys ~name:"a" in
  let t_resumed = ref Time.zero in
  ignore
    (W.spawn sys ~app:a ~name:"t" ~core:0
       (W.repeat 1 (fun _ ->
            [
              W.Gpu_async (W.spec ~kind:"k" ~work_s:0.050 ());
              W.Effect (fun () -> t_resumed := System.now sys);
            ])));
  System.start sys;
  W.run_until_idle sys ~apps:[ a ] ~timeout:(Time.sec 1);
  (* the 50 ms command is still executing when the task resumes *)
  check_bool "resumed well before completion" true (!t_resumed < Time.ms 10);
  System.shutdown sys

let test_request_roundtrip () =
  let sys = System.bbb () in
  let a = System.new_app sys ~name:"a" in
  let t_done = ref Time.zero in
  ignore
    (W.spawn sys ~app:a ~name:"t" ~core:0
       (W.repeat 1 (fun _ ->
            [
              W.Request { socket = 1; tx_bytes = 1000; rx_bytes = 6000; rtt = Time.ms 40 };
              W.Effect (fun () -> t_done := System.now sys);
            ])));
  System.start sys;
  W.run_until_idle sys ~apps:[ a ] ~timeout:(Time.sec 2);
  check_bool "rtt respected" true (!t_done >= Time.ms 40);
  check_bool "response received" true (!t_done < Time.ms 200);
  System.shutdown sys

let run_app sys apps = W.run_until_idle sys ~apps ~timeout:(Time.sec 30)

let test_cpu_apps_produce_work () =
  let sys = System.create ~cores:2 () in
  let b = System.new_app sys ~name:"b" in
  let c = System.new_app sys ~name:"c" in
  let d = System.new_app sys ~name:"d" in
  ignore (Cpu_apps.bodytrack sys ~frames:10 b);
  ignore (Cpu_apps.calib3d sys ~iterations:10 c);
  ignore (Cpu_apps.dedup sys ~chunks:10 d);
  System.start sys;
  run_app sys [ b; c; d ];
  check_float_gt "frames" 0.0 (System.counter b "frames");
  check_float_gt "kb" 0.0 (System.counter c "kb");
  check_float_gt "mb" 0.0 (System.counter d "mb");
  System.shutdown sys

let test_gpu_apps_produce_commands () =
  let sys = System.create ~cores:2 ~gpu:true () in
  let apps =
    [
      ("browser", fun a -> ignore (Gpu_apps.browser sys ~pages:1 a));
      ("magic", fun a -> ignore (Gpu_apps.magic sys ~frames:5 a));
      ("cube", fun a -> ignore (Gpu_apps.cube sys ~frames:5 a));
      ("triangle", fun a -> ignore (Gpu_apps.triangle sys ~batches:3 a));
    ]
  in
  let spawned = List.map (fun (n, f) -> let a = System.new_app sys ~name:n in f a; a) apps in
  System.start sys;
  run_app sys spawned;
  List.iter (fun a -> check_float_gt a.System.app_name 0.0 (System.counter a "cmds")) spawned;
  System.shutdown sys

let test_dsp_apps_produce_gflops () =
  let sys = System.create ~cores:2 ~dsp:true () in
  let s = System.new_app sys ~name:"sgemm" in
  let d = System.new_app sys ~name:"dgemm" in
  let m = System.new_app sys ~name:"monte" in
  ignore (Dsp_apps.sgemm sys ~kernels:3 s);
  ignore (Dsp_apps.dgemm sys ~kernels:2 d);
  ignore (Dsp_apps.monte sys ~kernels:5 m);
  System.start sys;
  run_app sys [ s; d; m ];
  List.iter (fun a -> check_float_gt a.System.app_name 0.0 (System.counter a "gflops")) [ s; d; m ];
  System.shutdown sys

let test_wifi_apps_move_bytes () =
  let sys = System.bbb () in
  let b = System.new_app sys ~name:"browser" in
  let s = System.new_app sys ~name:"scp" in
  let w = System.new_app sys ~name:"wget" in
  ignore (Wifi_apps.browser sys ~objects:2 b);
  ignore (Wifi_apps.scp sys ~kb:96 s);
  ignore (Wifi_apps.wget sys ~kb:96 w);
  System.start sys;
  run_app sys [ b; s; w ];
  List.iter (fun a -> check_float_gt a.System.app_name 0.0 (System.counter a "kb")) [ b; s; w ];
  System.shutdown sys

let test_websites_signatures_distinct () =
  (* two different sites must produce visibly different GPU busy time *)
  let energy site =
    let sys = System.create ~seed:33 ~cores:2 ~gpu:true () in
    let v = System.new_app sys ~name:"v" in
    let rng = Rng.create ~seed:44 in
    ignore (Websites.load_page sys v ~site ~rng);
    System.start sys;
    run_app sys [ v ];
    let dev = Psbox_kernel.Accel_driver.device (System.gpu sys) in
    let e = Psbox_hw.Accel.busy_unit_seconds dev in
    System.shutdown sys;
    e
  in
  let e_google = energy 0 and e_youtube = energy 1 in
  check_bool "distinct loads" true (e_youtube > 2.0 *. e_google)

let test_vr_adaptation_converges () =
  let sys = System.create ~cores:2 ~cpu_idle_w:0.06 () in
  let g = System.new_app sys ~name:"gesture" in
  ignore (Vr_app.gesture sys ~frames:1_000_000 g);
  let r = System.new_app sys ~name:"render" in
  let box = Psbox.create sys ~app:r.System.app_id ~hw:[ Psbox.Cpu ] in
  let ctl, _ = Vr_app.rendering sys r ~psbox:box ~budget_w:0.3 ~frames:1_000_000 () in
  System.start sys;
  System.run_for sys (Time.sec 6);
  let obs = Vr_app.observations ctl in
  check_bool "observed repeatedly" true (List.length obs >= 8);
  (* the controller must keep late observations at or under ~budget *)
  let late = List.filteri (fun i _ -> i >= List.length obs - 4) obs in
  let ok = List.for_all (fun (_, w, _) -> w < 0.45) late in
  check_bool "converged under budget" true ok;
  System.shutdown sys

let suite =
  [
    ("repeat script exits", `Quick, test_repeat_exits);
    ("effects and counters", `Quick, test_effect_and_counters);
    ("gpu batch blocks until done", `Quick, test_gpu_batch_blocks_until_done);
    ("gpu async proceeds at acceptance", `Quick, test_gpu_async_proceeds);
    ("empty batch continues at once", `Quick, test_empty_batch_continues);
    ("network request roundtrip", `Quick, test_request_roundtrip);
    ("cpu apps produce work", `Quick, test_cpu_apps_produce_work);
    ("gpu apps produce commands", `Quick, test_gpu_apps_produce_commands);
    ("dsp apps produce gflops", `Quick, test_dsp_apps_produce_gflops);
    ("wifi apps move bytes", `Quick, test_wifi_apps_move_bytes);
    ("website signatures distinct", `Quick, test_websites_signatures_distinct);
    ("vr adaptation converges", `Quick, test_vr_adaptation_converges);
  ]
