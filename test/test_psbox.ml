(* Tests for the psbox principal itself: API semantics, insulation, masking,
   power-state virtualization. *)
open Psbox_engine
module System = Psbox_kernel.System
module Psbox = Psbox_core.Psbox
module W = Psbox_workloads.Workload
module Sample = Psbox_meter.Sample
module Accel_driver = Psbox_kernel.Accel_driver

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let spin sys app ~core =
  W.spawn sys ~app ~name:"spin" ~core (W.forever (fun () -> [ W.Compute (Time.ms 5) ]))

let test_api_lifecycle () =
  let sys = System.create ~cores:2 () in
  let a = System.new_app sys ~name:"a" in
  ignore (spin sys a ~core:0);
  System.start sys;
  let box = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu ] in
  check_bool "outside initially" false (Psbox.inside box);
  Alcotest.check_raises "read outside raises" Psbox.Not_in_psbox (fun () ->
      ignore (Psbox.read_mj box));
  Alcotest.check_raises "sample outside raises" Psbox.Not_in_psbox (fun () ->
      ignore (Psbox.sample box));
  Psbox.enter box;
  Psbox.enter box (* idempotent *);
  check_bool "inside" true (Psbox.inside box);
  System.run_for sys (Time.ms 100);
  check_bool "energy accumulates" true (Psbox.read_mj box > 0.0);
  Psbox.leave box;
  Psbox.leave box (* idempotent *);
  check_bool "outside" false (Psbox.inside box);
  Psbox.destroy box;
  System.shutdown sys

let test_create_validation () =
  let sys = System.create ~cores:2 () in
  let a = System.new_app sys ~name:"a" in
  Alcotest.check_raises "empty hw"
    (Invalid_argument "Psbox.create: empty hardware set") (fun () ->
      ignore (Psbox.create sys ~app:a.System.app_id ~hw:[]));
  Alcotest.check_raises "no gpu" (Invalid_argument "Psbox.create: no GPU")
    (fun () -> ignore (Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Gpu ]));
  let b1 = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu ] in
  Alcotest.check_raises "duplicate target"
    (Invalid_argument "Psbox.create: app already has a psbox on this target")
    (fun () -> ignore (Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu ]));
  Psbox.destroy b1;
  (* after destroy, creation works again *)
  let b2 = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu ] in
  Psbox.destroy b2;
  System.shutdown sys

(* Insulation: the psbox view of an app must be (nearly) unchanged by what
   co-runners do — the headline property. *)
let test_insulation () =
  let run ~co =
    let sys = System.create ~seed:21 ~cores:2 () in
    let a = System.new_app sys ~name:"a" in
    ignore
      (W.spawn sys ~app:a ~name:"t" ~core:0
         (W.repeat 50 (fun _ -> [ W.Compute (Time.ms 5); W.Sleep (Time.ms 3) ])));
    if co then begin
      let b = System.new_app sys ~name:"b" in
      ignore (spin sys b ~core:0);
      ignore (spin sys b ~core:1)
    end;
    System.start sys;
    let box = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu ] in
    Psbox.enter box;
    W.run_until_idle sys ~apps:[ a ] ~timeout:(Time.sec 5);
    let mj = Psbox.read_mj box in
    Psbox.leave box;
    System.shutdown sys;
    mj
  in
  let alone = run ~co:false and co_run = run ~co:true in
  check_bool
    (Printf.sprintf "observation insulated (%.0f vs %.0f mJ)" alone co_run)
    true
    (Float.abs (co_run -. alone) /. alone < 0.12)

(* Outside the app's balloons the virtual meter reports idle power only,
   whatever the co-runners burn. *)
let test_masking () =
  let sys = System.create ~cores:2 () in
  let quiet = System.new_app sys ~name:"quiet" in
  (* the sandboxed app sleeps: it should observe pure idle power *)
  ignore
    (W.spawn sys ~app:quiet ~name:"z" ~core:0
       (W.forever (fun () -> [ W.Sleep (Time.ms 50) ])));
  let burner = System.new_app sys ~name:"burner" in
  ignore (spin sys burner ~core:0);
  ignore (spin sys burner ~core:1);
  System.start sys;
  let box = Psbox.create sys ~app:quiet.System.app_id ~hw:[ Psbox.Cpu ] in
  System.run_for sys (Time.ms 100);
  Psbox.enter box;
  System.run_for sys (Time.sec 1);
  let samples = Psbox.sample ~period:(Time.ms 1) box in
  let idle = Psbox_hw.Power_rail.idle_w (Psbox_hw.Cpu.rail (System.cpu sys)) in
  let above_idle =
    Array.exists (fun s -> s.Sample.watts > idle +. 1e-6) samples
  in
  check_bool "burner invisible: only idle power" false above_idle;
  Psbox.leave box;
  System.shutdown sys

let test_sample_timestamps () =
  let sys = System.create ~cores:1 () in
  let a = System.new_app sys ~name:"a" in
  ignore (spin sys a ~core:0);
  System.start sys;
  let box = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu ] in
  Psbox.enter box;
  System.run_for sys (Time.ms 10);
  let s = Psbox.sample box in
  (* default 10 us period over 10 ms -> 1001 samples, timestamped *)
  check_int "sample count" 1001 (Array.length s);
  check_bool "monotonic timestamps" true
    (Array.for_all
       (fun i -> s.(i).Sample.time < s.(i + 1).Sample.time)
       (Array.init (Array.length s - 1) (fun i -> i)));
  Psbox.leave box;
  System.shutdown sys

let test_multi_target () =
  let sys = System.am57 () in
  let a = System.new_app sys ~name:"a" in
  ignore
    (W.spawn sys ~app:a ~name:"t" ~core:0
       (W.forever
          (fun () ->
            [
              W.Compute (Time.ms 2);
              W.Gpu_batch [ W.spec ~kind:"k" ~work_s:0.002 () ];
            ])));
  System.start sys;
  let box = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu; Psbox.Gpu ] in
  Psbox.enter box;
  System.run_for sys (Time.ms 500);
  Alcotest.(check (list bool))
    "both targets bound" [ true; true ]
    (List.map (fun t -> List.mem t (Psbox.targets box)) [ Psbox.Cpu; Psbox.Gpu ]);
  let total = Psbox.read_mj box in
  let cpu_only = Sample.energy_mj (Psbox.sample_target box Psbox.Cpu) in
  let gpu_only = Sample.energy_mj (Psbox.sample_target box Psbox.Gpu) in
  check_bool "total covers both components" true
    (Float.abs (total -. (cpu_only +. gpu_only)) /. total < 0.05);
  Psbox.leave box;
  System.shutdown sys

(* Power-state virtualization: a psbox observes the same initial hardware
   power state at every entry, regardless of what others did in between. *)
let test_no_lingering_state_across_entries () =
  let sys = System.create ~cores:2 () in
  let a = System.new_app sys ~name:"a" in
  ignore
    (W.spawn sys ~app:a ~name:"t" ~core:0
       (W.forever (fun () -> [ W.Compute (Time.ms 2); W.Sleep (Time.ms 30) ])));
  let heater = System.new_app sys ~name:"heater" in
  ignore (spin sys heater ~core:0);
  ignore (spin sys heater ~core:1);
  System.start sys;
  let box = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu ] in
  (* run hot, then enter: the psbox must start from its own (pristine)
     frequency, not the heater's maxed one *)
  System.run_for sys (Time.sec 1);
  Alcotest.(check int) "heater drove the clock up" 1500
    (Psbox_hw.Cpu.freq_mhz (System.cpu sys));
  Psbox.enter box;
  System.run_for sys (Time.ms 6);
  (* during a's balloon the restored state is the pristine lowest OPP *)
  let samples = Psbox.sample ~period:(Time.ms 1) box in
  let peak = Array.fold_left (fun m s -> Float.max m s.Sample.watts) 0.0 samples in
  (* at 500 MHz one busy core draws ~0.67 W; at 1.5 GHz it would be 2.5 W *)
  check_bool
    (Printf.sprintf "first balloon at pristine clock (peak %.2f W)" peak)
    true (peak < 1.0);
  Psbox.leave box;
  System.shutdown sys

let test_exclusive_intervals_accounting () =
  let sys = System.create ~cores:2 () in
  let a = System.new_app sys ~name:"a" in
  ignore (spin sys a ~core:0);
  System.start sys;
  let box = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu ] in
  Psbox.enter box;
  System.run_for sys (Time.sec 1);
  let excl = Psbox.exclusive_us box in
  let intervals = Psbox.exclusive_intervals box in
  let sum =
    List.fold_left (fun acc (t0, t1) -> acc +. Time.to_us_f (t1 - t0)) 0.0 intervals
  in
  check_bool "exclusive_us consistent with intervals" true
    (Float.abs (excl -. sum) < 1.0);
  check_bool "app ran most of the second" true (excl > 0.9e6);
  Psbox.leave box;
  System.shutdown sys

(* After many stays, every reader reports the last stay alone: the
   reference re-derives it from the driver's full balloon history (every
   stay since boot) clipped to the stay, as the meter did before it
   dropped old balloons at [enter]. The reads are taken while a balloon is
   open; the reference gets that balloon from the driver once it closes. *)
let test_multi_stay_reads_last_stay () =
  let sys = System.create ~seed:5 ~cores:2 ~gpu:true () in
  System.record_history sys;
  let gpu_app period =
    W.forever (fun () ->
        [
          W.Gpu_batch [ W.spec ~kind:"k" ~work_s:0.004 ~units:2 () ];
          W.Sleep period;
        ])
  in
  let a = System.new_app sys ~name:"a" in
  ignore (W.spawn sys ~app:a ~name:"a" (gpu_app (Time.ms 3)));
  let b = System.new_app sys ~name:"b" in
  ignore (W.spawn sys ~app:b ~name:"b" (gpu_app (Time.ms 1)));
  System.start sys;
  let box = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Gpu ] in
  for _ = 1 to 4 do
    Psbox.enter box;
    System.run_for sys (Time.ms 150);
    Psbox.leave box;
    System.run_for sys (Time.ms 50)
  done;
  Psbox.enter box;
  let from = System.now sys in
  let driver = System.gpu sys in
  System.run_for sys (Time.ms 150);
  let steps = ref 0 in
  while (not (Accel_driver.balloon_open driver)) && !steps < 100 do
    System.run_for sys (Time.ms 1);
    incr steps
  done;
  (* into the balloon, so it has a length to clip *)
  System.run_for sys (Time.ms 1);
  check_bool "a balloon is open at the reads" true (Accel_driver.balloon_open driver);
  let until = System.now sys in
  let intervals = Psbox.exclusive_intervals box in
  let mj = Psbox.read_mj box in
  let samples = Psbox.sample ~period:(Time.us 100) box in
  Psbox.leave box;
  System.run_for sys (Time.ms 100);
  let history = Accel_driver.balloon_intervals driver in
  let expected =
    List.filter_map
      (fun (t0, t1) ->
        let t0 = max t0 from and t1 = min t1 until in
        if t1 > t0 then Some (t0, t1) else None)
      history
  in
  check_bool "earlier stays left balloons in the history" true
    (List.exists (fun (_, t1) -> t1 <= from) history);
  check_bool "the last stay has balloons" true (expected <> []);
  Alcotest.(check (list (pair int int))) "exclusive_intervals" expected intervals;
  let rail = Psbox_hw.Accel.rail (Accel_driver.device driver) in
  let floor_w = Psbox_hw.Power_rail.idle_w rail in
  let tl = Psbox_hw.Power_rail.timeline rail in
  let in_balloon t = List.exists (fun (t0, t1) -> t >= t0 && t <= t1) expected in
  let balloon_s =
    List.fold_left (fun acc (t0, t1) -> acc +. Time.to_sec_f (t1 - t0)) 0.0 expected
  in
  let balloon_j =
    List.fold_left
      (fun acc (t0, t1) ->
        Timeline.fold_intervals tl ~from:t0 ~until:t1 ~init:acc
          ~f:(fun acc s e v -> acc +. (Float.max v floor_w *. Time.to_sec_f (e - s))))
      0.0 expected
  in
  let expected_mj =
    (balloon_j +. (floor_w *. (Time.to_sec_f (until - from) -. balloon_s))) *. 1e3
  in
  check_bool
    (Printf.sprintf "read_mj %.9f = %.9f" mj expected_mj)
    true
    (Float.abs (mj -. expected_mj) <= 1e-9 *. expected_mj);
  check_int "sample count" ((until - from) / Time.us 100 + 1) (Array.length samples);
  Array.iter
    (fun s ->
      let t = s.Sample.time in
      let w =
        if in_balloon t then Float.max (Timeline.value_at tl t) floor_w else floor_w
      in
      if s.Sample.watts <> w then
        Alcotest.failf "sample at %d: %.6f W, expected %.6f W" t s.Sample.watts w)
    samples;
  System.shutdown sys

(* The one-box-per-(machine, app, target) registry holds machines weakly
   and per domain. Run in a fresh domain so no other test's observers
   (an audit report registry, say) can keep the machine alive. *)
let test_registry_does_not_retain_machine () =
  let collected =
    Domain.join
      (Domain.spawn (fun () ->
           let w = Weak.create 1 in
           let build () =
             let sys = System.create ~cores:1 () in
             let a = System.new_app sys ~name:"a" in
             ignore (Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu ]);
             Weak.set w 0 (Some sys)
           in
           build ();
           Gc.full_major ();
           not (Weak.check w 0)))
  in
  check_bool "undestroyed box's machine collected" true collected;
  (* machine uids restart in every domain: two domains each boxing app 1
     of their first machine must not see each other's boxes *)
  let box_in_fresh_domain () =
    Domain.spawn (fun () ->
        let sys = System.create ~cores:1 () in
        let a = System.new_app sys ~name:"a" in
        let box = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu ] in
        (System.uid sys, Psbox.app box))
  in
  let d1 = box_in_fresh_domain () and d2 = box_in_fresh_domain () in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  Alcotest.(check (pair int int)) "same uid and app in both domains" r1 r2

let suite =
  [
    ("api lifecycle", `Quick, test_api_lifecycle);
    ("create validation", `Quick, test_create_validation);
    ("insulation from co-runners", `Quick, test_insulation);
    ("masking outside balloons", `Quick, test_masking);
    ("sample timestamps at 10us", `Quick, test_sample_timestamps);
    ("multiple hardware targets", `Quick, test_multi_target);
    ("no lingering state across entries", `Quick, test_no_lingering_state_across_entries);
    ("exclusive interval accounting", `Quick, test_exclusive_intervals_accounting);
    ("multi-stay reads cover the last stay", `Quick, test_multi_stay_reads_last_stay);
    ("registry holds machines weakly, per domain", `Quick,
      test_registry_does_not_retain_machine);
  ]
