(* Tests for the accelerator driver: fair command scheduling and temporal
   balloons. *)
open Psbox_engine
module Accel = Psbox_hw.Accel
module Accel_driver = Psbox_kernel.Accel_driver

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk ?(units = 2) ?(window = 2) ?policy () =
  let sim = Sim.create () in
  let dev =
    Accel.create sim ~name:"acc" ~units ~governor:Psbox_hw.Dvfs.Performance
      ~idle_w:0.1 ()
  in
  let d = Accel_driver.create sim dev ?policy ~window () in
  Accel_driver.record_history d;
  (sim, dev, d)

let submit d ~app ~work_s =
  let cmd = Accel.command ~app ~kind:"k" ~work_s () in
  Accel_driver.submit d ~app cmd ~on_complete:(fun _ -> ());
  cmd

(* A continuous submitter that keeps an app's queue non-empty. *)
let feeder sim d ~app ~work_s =
  let rec loop () =
    let cmd = Accel.command ~app ~kind:"k" ~work_s () in
    Accel_driver.submit d ~app cmd ~on_complete:(fun _ -> loop ())
  in
  ignore sim;
  loop ();
  loop ()

let test_dispatch_and_complete () =
  let sim, _, d = mk () in
  let done_ = ref false in
  let cmd = Accel.command ~app:1 ~kind:"k" ~work_s:0.005 () in
  Accel_driver.submit d ~app:1 cmd ~on_complete:(fun _ -> done_ := true);
  Sim.run_until sim (Time.ms 20);
  check_bool "completed" true !done_;
  check_int "counted" 1 (Accel_driver.completed d ~app:1);
  check_int "log" 1 (List.length (Accel_driver.completed_commands d))

let test_fair_sharing () =
  let sim, _, d = mk () in
  feeder sim d ~app:1 ~work_s:0.004;
  feeder sim d ~app:2 ~work_s:0.004;
  Sim.run_until sim (Time.sec 2);
  let c1 = Accel_driver.completed d ~app:1 in
  let c2 = Accel_driver.completed d ~app:2 in
  check_bool
    (Printf.sprintf "fair split (%d vs %d)" c1 c2)
    true
    (abs (c1 - c2) * 10 < c1 + c2);
  (* vruntimes track each other *)
  let v1 = Accel_driver.vruntime d ~app:1 and v2 = Accel_driver.vruntime d ~app:2 in
  check_bool "vruntimes close" true (Float.abs (v1 -. v2) < 0.1)

let test_round_robin_policy () =
  let sim, _, d = mk ~policy:Accel_driver.Round_robin ~window:1 () in
  feeder sim d ~app:1 ~work_s:0.004;
  feeder sim d ~app:2 ~work_s:0.004;
  Sim.run_until sim (Time.sec 1);
  let c1 = Accel_driver.completed d ~app:1 in
  let c2 = Accel_driver.completed d ~app:2 in
  check_bool "rr alternates" true (abs (c1 - c2) <= 2)

(* Temporal balloon: while the balloon serves the sandboxed app, no foreign
   command is in flight on the device. *)
let test_balloon_exclusivity () =
  let sim, _, d = mk () in
  feeder sim d ~app:1 ~work_s:0.004;
  feeder sim d ~app:2 ~work_s:0.004;
  Sim.run_until sim (Time.ms 100);
  Accel_driver.sandbox d ~app:1;
  Sim.run_until sim (Time.sec 2);
  let intervals = Accel_driver.balloon_intervals d in
  check_bool "balloons formed" true (List.length intervals > 2);
  let cmds = Accel_driver.completed_commands d in
  let foreign_inside =
    List.exists
      (fun (b0, b1) ->
        List.exists
          (fun c ->
            c.Accel.app <> 1
            &&
            match (c.Accel.started_at, c.Accel.finished_at) with
            | Some s, Some f -> min f b1 > max s b0
            | _ -> false)
          cmds)
      intervals
  in
  check_bool "no foreign command inside a balloon" false foreign_inside;
  (* and the sandboxed app's commands execute only inside balloons *)
  let own_outside =
    List.exists
      (fun c ->
        c.Accel.app = 1
        && c.Accel.started_at <> None
        && Option.get c.Accel.started_at > Time.ms 120
        && not
             (List.exists
                (fun (b0, b1) ->
                  Option.get c.Accel.started_at >= b0
                  && Option.get c.Accel.finished_at <= b1)
                intervals))
      cmds
  in
  check_bool "own commands only inside balloons" false own_outside

let test_balloon_billing_disadvantages () =
  let sim, _, d = mk () in
  feeder sim d ~app:1 ~work_s:0.004;
  feeder sim d ~app:2 ~work_s:0.004;
  Accel_driver.sandbox d ~app:1;
  Sim.run_until sim (Time.sec 2);
  (* app 1 is billed the whole device during its serve windows, so it must
     complete fewer commands than the unsandboxed sibling *)
  let c1 = Accel_driver.completed d ~app:1 in
  let c2 = Accel_driver.completed d ~app:2 in
  check_bool (Printf.sprintf "sandboxed does less (%d vs %d)" c1 c2) true (c1 < c2)

let test_unsandbox_releases () =
  let sim, _, d = mk () in
  feeder sim d ~app:1 ~work_s:0.004;
  feeder sim d ~app:2 ~work_s:0.004;
  Accel_driver.sandbox d ~app:1;
  Sim.run_until sim (Time.ms 500);
  Accel_driver.unsandbox d;
  Sim.run_until sim (Time.ms 600);
  check_bool "balloon closed" false (Accel_driver.balloon_open d);
  check_bool "sandbox cleared" true (Accel_driver.sandboxed d = None);
  let n = List.length (Accel_driver.balloon_intervals d) in
  Sim.run_until sim (Time.sec 1);
  check_int "no new balloons after unsandbox" n
    (List.length (Accel_driver.balloon_intervals d))

let test_sandbox_conflict_rejected () =
  let _, _, d = mk () in
  Accel_driver.sandbox d ~app:1;
  Alcotest.check_raises "conflict"
    (Invalid_argument "Accel_driver.sandbox: another app is already sandboxed")
    (fun () -> Accel_driver.sandbox d ~app:2)

let test_drain_preserves_all_commands () =
  let sim, _, d = mk () in
  (* fixed workloads: every submitted command must eventually complete even
     across balloon phase changes *)
  let total = ref 0 in
  for i = 1 to 30 do
    let app = 1 + (i mod 2) in
    let cmd = Accel.command ~app ~kind:"k" ~work_s:0.003 () in
    Accel_driver.submit d ~app cmd ~on_complete:(fun _ -> incr total)
  done;
  Accel_driver.sandbox d ~app:1;
  Sim.run_until sim (Time.ms 50);
  Accel_driver.unsandbox d;
  Sim.run_until sim (Time.sec 2);
  check_int "all commands completed" 30 !total

let test_dispatch_latency_rises_for_sandboxed () =
  let sim, _, d = mk () in
  feeder sim d ~app:1 ~work_s:0.004;
  feeder sim d ~app:2 ~work_s:0.004;
  Sim.run_until sim (Time.ms 500);
  let before =
    Accel_driver.dispatch_latencies_us d
    |> List.filter (fun (a, _) -> a = 1)
    |> List.map snd
  in
  let mark = List.length (Accel_driver.dispatch_latencies_us d) in
  Accel_driver.sandbox d ~app:1;
  Sim.run_until sim (Time.ms 1000);
  let after =
    Accel_driver.dispatch_latencies_us d
    |> List.filteri (fun i _ -> i >= mark)
    |> List.filter (fun (a, _) -> a = 1)
    |> List.map snd
  in
  let mean l = Stats.mean (Array.of_list l) in
  check_bool "drain phases add dispatch latency" true (mean after > mean before)

(* SGX-style Lock_requests: a foreign submission stalls in syscall context
   while a balloon holds the queue; Adreno-style per-process queues accept
   it immediately. *)
let test_lock_requests_blocks_submission () =
  let run buffering =
    let sim = Sim.create () in
    let dev =
      Accel.create sim ~name:"acc" ~units:2 ~governor:Psbox_hw.Dvfs.Performance
        ~idle_w:0.1 ()
    in
    let d = Accel_driver.create sim dev ~buffering ~window:2 () in
    feeder sim d ~app:1 ~work_s:0.004;
    Accel_driver.sandbox d ~app:1;
    Sim.run_until sim (Time.ms 50);
    (* a balloon should now be open more or less permanently (app 1 is the
       only client); inject a foreign submission *)
    check_bool "balloon open" true (Accel_driver.balloon_open d);
    let accepted = ref false in
    Accel_driver.submit d ~on_accepted:(fun () -> accepted := true) ~app:2
      (Accel.command ~app:2 ~kind:"k" ~work_s:0.001 ())
      ~on_complete:(fun _ -> ());
    let immediately = !accepted in
    Sim.run_until sim (Time.ms 300);
    (immediately, !accepted)
  in
  let sgx_now, sgx_later = run Accel_driver.Lock_requests in
  check_bool "sgx: stalled while balloon open" false sgx_now;
  check_bool "sgx: accepted after flush-others" true sgx_later;
  let adreno_now, _ = run Accel_driver.Per_process_queues in
  check_bool "adreno: accepted immediately" true adreno_now

let test_submission_blocks_predicate () =
  let sim, _, d = mk () in
  check_bool "no balloon: never blocks" false (Accel_driver.submission_blocks d ~app:2);
  feeder sim d ~app:1 ~work_s:0.004;
  Accel_driver.sandbox d ~app:1;
  Sim.run_until sim (Time.ms 50);
  (* default buffering is Per_process_queues: still never blocks *)
  check_bool "per-process queues never block" false
    (Accel_driver.submission_blocks d ~app:2)

(* Order oracle: the same random arrivals, rate gates, sandbox switches
   and completions (the device models run alongside) drive this driver and
   the list-building reference in [Ref_drivers]; both must dispatch the
   same apps with the same latencies, and end on the same vruntimes to the
   bit. *)
type op =
  | Submit of int * int (* app, work in 0.1 ms *)
  | Rate of int * float option (* app, device-seconds per second *)
  | Sandbox of int
  | Unsandbox

let prop_picks_match_reference =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (8, map2 (fun a w -> Submit (a, w)) (int_range 1 4) (int_range 1 80));
        ( 2,
          map2
            (fun a r -> Rate (a, r))
            (int_range 1 4)
            (opt (float_range 0.05 2.0)) );
        (1, map (fun a -> Sandbox a) (int_range 1 4));
        (1, return Unsandbox);
      ]
  in
  let gen =
    quad bool (int_range 1 3) (int_range 1 4)
      (list_size (int_range 1 40) (pair (int_range 0 150) op))
  in
  let print (rr, window, units, ops) =
    Printf.sprintf "%s window %d units %d: %s"
      (if rr then "round-robin" else "fair")
      window units
      (String.concat "; "
         (List.map
            (fun (ms, op) ->
              match op with
              | Submit (a, w) -> Printf.sprintf "%dms submit app%d %d" ms a w
              | Rate (a, Some r) -> Printf.sprintf "%dms rate app%d %h" ms a r
              | Rate (a, None) -> Printf.sprintf "%dms unrate app%d" ms a
              | Sandbox a -> Printf.sprintf "%dms sandbox app%d" ms a
              | Unsandbox -> Printf.sprintf "%dms unsandbox" ms)
            ops))
  in
  QCheck.Test.make ~name:"driver picks match the list-building reference"
    ~count:300 (QCheck.make ~print gen) (fun (rr, window, units, ops) ->
      let device () =
        let sim = Sim.create () in
        (sim, Accel.create sim ~name:"acc" ~units ~autosuspend:(Time.ms 30) ())
      in
      let sim, dev = device () and rsim, rdev = device () in
      let policy = if rr then Accel_driver.Round_robin else Accel_driver.Fair in
      let d = Accel_driver.create sim dev ~policy ~window () in
      Accel_driver.record_history d;
      let r =
        Ref_drivers.Accel_ref.create rsim rdev ~window
          ~policy:(if rr then Ref_drivers.Accel_ref.Round_robin else Fair)
      in
      List.iter
        (fun (ms, op) ->
          let at = Time.ms ms in
          let both f g =
            ignore (Sim.schedule_at sim at f);
            ignore (Sim.schedule_at rsim at g)
          in
          match op with
          | Submit (app, w) ->
              let work_s = float_of_int w *. 1e-4 in
              both
                (fun () ->
                  Accel_driver.submit d ~app
                    (Accel.command ~app ~kind:"k" ~work_s ())
                    ~on_complete:ignore)
                (fun () ->
                  Ref_drivers.Accel_ref.submit r ~app
                    (Accel.command ~app ~kind:"k" ~work_s ()))
          | Rate (app, lim) ->
              both
                (fun () -> Accel_driver.set_rate d ~app lim)
                (fun () -> Ref_drivers.Accel_ref.set_rate r ~app lim)
          | Sandbox app ->
              (* one sandboxed app at a time *)
              both
                (fun () ->
                  match Accel_driver.sandboxed d with
                  | None -> Accel_driver.sandbox d ~app
                  | Some _ -> ())
                (fun () ->
                  match r.Ref_drivers.Accel_ref.sandboxed with
                  | None -> Ref_drivers.Accel_ref.sandbox r ~app
                  | Some _ -> ())
          | Unsandbox ->
              both
                (fun () -> Accel_driver.unsandbox d)
                (fun () -> Ref_drivers.Accel_ref.unsandbox r))
        ops;
      Sim.run_until sim (Time.sec 3);
      Sim.run_until rsim (Time.sec 3);
      let bits x = Int64.bits_of_float x in
      Accel_driver.dispatch_latencies_us d = Ref_drivers.Accel_ref.dispatched r
      && List.for_all
           (fun app ->
             bits (Accel_driver.vruntime d ~app)
             = bits (Ref_drivers.Accel_ref.vruntime r ~app))
           [ 1; 2; 3; 4 ])

let suite =
  [
    ("dispatch and complete", `Quick, test_dispatch_and_complete);
    ("lock_requests blocks submission", `Quick, test_lock_requests_blocks_submission);
    ("submission_blocks predicate", `Quick, test_submission_blocks_predicate);
    ("fair sharing", `Quick, test_fair_sharing);
    ("round-robin policy", `Quick, test_round_robin_policy);
    ("temporal balloon exclusivity", `Quick, test_balloon_exclusivity);
    ("balloon billing disadvantages", `Quick, test_balloon_billing_disadvantages);
    ("unsandbox releases", `Quick, test_unsandbox_releases);
    ("sandbox conflict rejected", `Quick, test_sandbox_conflict_rejected);
    ("drain preserves all commands", `Quick, test_drain_preserves_all_commands);
    ("dispatch latency rises for sandboxed", `Quick, test_dispatch_latency_rises_for_sandboxed);
    QCheck_alcotest.to_alcotest prop_picks_match_reference;
  ]
