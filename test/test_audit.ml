(* The joule audit's load-bearing invariant: attributed joules per rail
   sum to the kernel's O(1) energy ledger bit-for-bit — for arbitrary
   workloads, across psbox balloon churn — and a balloon'd app's blame
   stays on the balloon owner, never on neighbours. *)
open Psbox_engine
module System = Psbox_kernel.System
module Audit = Psbox_audit.Audit
module Psbox = Psbox_core.Psbox
module W = Psbox_workloads.Workload
module Tm = Psbox_telemetry.Metrics
module Budget = Psbox_budget.Budget

let bits = Int64.bits_of_float

let gen_ops ~gpu =
  QCheck.Gen.(
    list_size (1 -- 12)
      (oneof
         ([
            map (fun ms -> `Compute (1 + ms)) (0 -- 8);
            map (fun ms -> `Sleep (1 + ms)) (0 -- 8);
          ]
         @ if gpu then [ map (fun ms -> `Gpu (1 + ms)) (0 -- 4) ] else [])))

let to_script ops =
  let ops =
    List.map
      (function
        | `Compute ms -> W.Compute (Time.ms ms)
        | `Sleep ms -> W.Sleep (Time.ms ms)
        | `Gpu ms ->
            W.Gpu_batch [ W.spec ~kind:"k" ~work_s:(float_of_int ms /. 1e3) () ])
      ops
  in
  W.forever (fun () -> ops)

let arbitrary_scenario =
  QCheck.make
    ~print:(fun (a, b, enter_ms, leave_ms) ->
      Printf.sprintf "tasks=%d/%d enter=%dms leave=%dms" (List.length a)
        (List.length b) enter_ms leave_ms)
    QCheck.Gen.(
      quad (gen_ops ~gpu:true) (gen_ops ~gpu:true) (10 -- 200) (210 -- 400))

(* Conservation, bit-for-bit, for random workloads with random psbox
   enter/leave points: on every rail, the blame rows folded in canonical
   order equal the audit total equal the kernel ledger — as the same
   doubles, not approximately. The idle-floor remainder row makes the
   fold exact; the residue it absorbed must stay negligible, so the
   invariant is not satisfied vacuously. *)
let prop_conservation =
  QCheck.Test.make
    ~name:"random workloads attribute exactly to the ledger, per rail"
    ~count:30 arbitrary_scenario
    (fun (ops_a, ops_b, enter_ms, leave_ms) ->
      let sys = System.create ~cores:2 ~gpu:true ~wifi:true () in
      let audit = Audit.attach sys in
      let a = System.new_app sys ~name:"a" in
      let b = System.new_app sys ~name:"b" in
      ignore (W.spawn sys ~app:a ~name:"a0" ~core:0 (to_script ops_a));
      ignore (W.spawn sys ~app:b ~name:"b0" ~core:1 (to_script ops_b));
      System.start sys;
      let box = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Gpu ] in
      System.run_for sys (Time.ms enter_ms);
      Psbox.enter box;
      System.run_for sys (Time.ms (leave_ms - enter_ms));
      Psbox.leave box;
      System.run_for sys (Time.ms 100);
      let conserved =
        match Audit.check audit with
        | Ok () -> true
        | Error msg ->
            Printf.eprintf "audit check: %s\n" msg;
            false
      in
      let exact_and_tight =
        List.for_all
          (fun rail ->
            let total = Audit.rail_total audit ~rail in
            let ledger = System.rail_energy_j sys ~name:rail in
            let folded =
              List.fold_left
                (fun acc r -> acc +. r.Audit.r_j)
                0.0
                (Audit.rows audit ~rail)
            in
            bits total = bits ledger
            && bits folded = bits ledger
            && Float.abs (Audit.residue audit ~rail) <= 1e-9 *. (1.0 +. total))
          (Audit.rails audit)
      in
      Psbox.destroy box;
      System.shutdown sys;
      conserved && exact_and_tight)

let test_conservation_property () =
  match
    QCheck.Test.check_exn prop_conservation
  with
  | () -> ()
  | exception QCheck.Test.Test_fail (name, msgs) ->
      Alcotest.failf "%s: %s" name (String.concat "; " msgs)

(* A deterministic co-run still exercises every cause at least once and
   conserves bit-exactly: Active and Shared_rail while both apps compute,
   Lingering / Dvfs_transition on the GPU's autosuspend countdown,
   Idle_floor everywhere. *)
let test_causes_and_totals () =
  let sys = System.create ~cores:2 ~gpu:true () in
  let audit = Audit.attach sys in
  let a = System.new_app sys ~name:"a" in
  let b = System.new_app sys ~name:"b" in
  let gpu_work _ =
    [ W.Gpu_batch [ W.spec ~kind:"k" ~work_s:0.004 () ]; W.Sleep (Time.ms 2) ]
  in
  ignore (W.spawn sys ~app:a ~name:"a0" ~core:0 (W.repeat 20 gpu_work));
  (* b joins the GPU late: a's opening batches run solo (Active), the
     overlap then shares the rail (Shared_rail) *)
  ignore
    (W.spawn sys ~app:b ~name:"b0" ~core:1
       (W.repeat 20 (fun i ->
            if i = 0 then W.Sleep (Time.ms 30) :: gpu_work i else gpu_work i)));
  System.start sys;
  System.run_for sys (Time.sec 1);
  (match Audit.check audit with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "conservation violated: %s" msg);
  Alcotest.(check (list string))
    "audited rails" [ "cpu"; "gpu" ] (Audit.rails audit);
  let causes rail =
    Audit.rows audit ~rail
    |> List.filter (fun r -> r.Audit.r_j > 0.0)
    |> List.map (fun r -> Audit.cause_label r.Audit.r_cause)
    |> List.sort_uniq compare
  in
  let gpu_causes = causes "gpu" in
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " present on gpu") true (List.mem c gpu_causes))
    [ "active"; "shared-rail"; "idle-floor" ];
  (* the 200 ms autosuspend countdown after the last command, at an
     elevated OPP first: lingering power states, blamed on the last user *)
  Alcotest.(check bool)
    "a lingering state appears on gpu" true
    (List.mem "lingering" gpu_causes || List.mem "dvfs-transition" gpu_causes);
  Alcotest.(check bool)
    "gpu drew energy" true
    (Audit.rail_total audit ~rail:"gpu" > 0.0);
  System.shutdown sys

(* Insulation: while app a holds a GPU balloon, everything the device
   draws — including the lingering tail after its last command — is
   blamed on a. The neighbour never appears on the GPU rail at all. *)
let test_balloon_blame_insulation () =
  let sys = System.create ~cores:2 ~gpu:true () in
  let audit = Audit.attach sys in
  let a = System.new_app sys ~name:"a" in
  let b = System.new_app sys ~name:"b" in
  ignore
    (W.spawn sys ~app:a ~name:"a0" ~core:0
       (W.repeat 10 (fun _ ->
            [ W.Gpu_batch [ W.spec ~kind:"k" ~work_s:0.005 () ] ])));
  (* the neighbour computes on the CPU only *)
  ignore
    (W.spawn sys ~app:b ~name:"b0" ~core:1
       (W.repeat 50 (fun _ -> [ W.Compute (Time.ms 4); W.Sleep (Time.ms 2) ])));
  System.start sys;
  let box = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Gpu ] in
  System.run_for sys (Time.ms 10);
  Psbox.enter box;
  System.run_for sys (Time.ms 200);
  Psbox.leave box;
  (* let the GPU's shared-rail tail (elevated OPP, then the autosuspend
     countdown) play out after the balloon closed *)
  System.run_for sys (Time.ms 400);
  let gpu_rows = Audit.rows audit ~rail:"gpu" in
  let blamed_b =
    List.filter (fun r -> r.Audit.r_app = b.System.app_id) gpu_rows
  in
  Alcotest.(check int)
    "neighbour has no blame on the balloon'd GPU" 0 (List.length blamed_b);
  let a_j cause =
    List.fold_left
      (fun acc r ->
        if r.Audit.r_app = a.System.app_id && r.Audit.r_cause = cause then
          acc +. r.Audit.r_j
        else acc)
      0.0 gpu_rows
  in
  Alcotest.(check bool) "a has active GPU blame" true (a_j Audit.Active > 0.0);
  Alcotest.(check bool)
    "the tail is a's, not nobody's" true
    (a_j Audit.Lingering +. a_j Audit.Dvfs_transition > 0.0);
  (* the psbox snapshot captured the stay: active joules were billed *)
  let stay = Psbox.stay_blame box in
  Alcotest.(check bool)
    "stay_blame has active joules" true
    (match List.assoc_opt "active" stay with Some j -> j > 0.0 | None -> false);
  Psbox.destroy box;
  System.shutdown sys

(* The audit is a pure observer: with it attached, the rail's power
   history and the machine ledger match a run without it, byte for
   byte. *)
let test_pure_observer () =
  let run audited =
    let sys = System.create ~cores:2 ~gpu:true () in
    if audited then ignore (Audit.attach sys : Audit.t);
    let a = System.new_app sys ~name:"a" in
    ignore
      (W.spawn sys ~app:a ~name:"a0" ~core:0
         (W.repeat 15 (fun _ ->
              [
                W.Compute (Time.ms 3);
                W.Gpu_batch [ W.spec ~kind:"k" ~work_s:0.002 () ];
              ])));
    System.start sys;
    System.run_for sys (Time.ms 500);
    let e = System.live_energy_j sys in
    let per_rail = System.rail_energy_table sys in
    System.shutdown sys;
    (e, per_rail)
  in
  let e0, rails0 = run false in
  let e1, rails1 = run true in
  Alcotest.(check bool) "machine ledger identical" true (bits e0 = bits e1);
  Alcotest.(check bool)
    "per-rail ledgers identical" true
    (List.for_all2
       (fun (n0, j0) (n1, j1) -> n0 = n1 && bits j0 = bits j1)
       rails0 rails1)

(* The flat-storage audit against the reference classify/flush kept in
   [Ref_audit], on a machine where several apps share rails with
   non-integer shares: display surfaces and GPS subscriptions come and go
   for five apps (their per-app rails' watts are the shares) while three of
   them also compute and render. Rows, conservation and the printed
   audit.*_j counters must all match the reference to the bit, which holds
   only if shared draw is billed in the reference's order. *)
let test_order_matches_reference () =
  Tm.with_fresh_store (fun () ->
      let sys = System.create ~cores:2 ~gpu:true ~display:true ~gps:true () in
      let audit = Audit.attach sys in
      let rf = Ref_audit.attach sys in
      let apps =
        Array.init 5 (fun i -> System.new_app sys ~name:(Printf.sprintf "a%d" i))
      in
      for i = 0 to 2 do
        ignore
          (W.spawn sys ~app:apps.(i) ~name:"w" ~core:(i mod 2)
             (W.forever (fun () ->
                  [
                    W.Compute (Time.ms (1 + i));
                    W.Gpu_batch [ W.spec ~kind:"k" ~work_s:0.002 () ];
                    W.Sleep (Time.ms 2);
                  ])))
      done;
      System.start sys;
      let d = System.display sys and g = System.gps sys in
      let rng = Rng.create ~seed:11 in
      for k = 1 to 300 do
        let app = apps.(Rng.int rng 5).System.app_id in
        let r = Rng.int rng 6 in
        ignore
          (Sim.schedule_at (System.sim sys) (Time.ms (3 * k)) (fun () ->
               if r < 3 then
                 Psbox_hw.Display.set_surface d ~app
                   ~pixels:(50_000 + Rng.int rng 900_000)
                   ~luminance:(Rng.float rng 1.0)
               else if r = 3 then Psbox_hw.Display.remove_surface d ~app
               else if r = 4 then Psbox_hw.Gps.subscribe g ~app
               else Psbox_hw.Gps.unsubscribe g ~app))
      done;
      let compare_all () =
        List.iter
          (fun rail ->
            let ours =
              List.map
                (fun r -> Audit.(r.r_app, r.r_cause, bits r.r_j, r.r_residual))
                (Audit.rows audit ~rail)
            in
            let theirs =
              List.map
                (fun (app, c, j, res) -> (app, c, bits j, res))
                (Ref_audit.rows rf ~rail)
            in
            Alcotest.(check bool) (rail ^ " rows bit-identical") true (ours = theirs);
            let counter name = Option.value (Tm.find name) ~default:0.0 in
            Alcotest.(check bool)
              (rail ^ " counter bit-identical") true
              (bits (counter ("audit.rail." ^ rail ^ "_j"))
              = bits (Ref_audit.rail_counter rf ~rail)))
          (Audit.rails audit);
        List.iter
          (fun c ->
            let name = "audit.cause." ^ Audit.cause_label c ^ "_j" in
            Alcotest.(check bool)
              (name ^ " bit-identical") true
              (bits (Option.value (Tm.find name) ~default:0.0)
              = bits (Ref_audit.cause_counter rf c)))
          Audit.all_causes;
        match Audit.check audit with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "conservation violated: %s" msg
      in
      System.run_for sys (Time.ms 450);
      compare_all ();
      System.run_for sys (Time.ms 600);
      compare_all ();
      (* the order only matters if draw was really shared three ways *)
      let sharers rail =
        Audit.rows audit ~rail
        |> List.filter (fun r -> r.Audit.r_cause = Audit.Shared_rail)
        |> List.length
      in
      Alcotest.(check bool) "display shared by 3+ apps" true (sharers "display" >= 3);
      Alcotest.(check bool) "gps shared by 3+ apps" true (sharers "gps" >= 3);
      System.shutdown sys)

(* Observer allocation, bounded. A fixed 10 s machine (CPU + GPU + WiFi,
   a capped render loop next to a CPU duty cycle) runs bare and with the
   audit and a budget cap riding it; the difference in minor words per
   event is what the observers cost. Settling joules is meant to allocate
   nothing, so the bound sits about 25% over the measured cost (see the
   change log): a regression that boxes a float or builds a list per
   settle shows up as whole words per event. The counts are deterministic,
   and a warm-up second keeps the event pool's growth out of them. *)
let observer_words_bound = 4.4

let words_per_event ~observers =
  Tm.with_fresh_store (fun () ->
      Psbox_kernel.Task.reset_ids ();
      Psbox_kernel.Entity.reset_ids ();
      let sys = System.create ~seed:5 ~cores:2 ~gpu:true ~wifi:true () in
      if observers then ignore (Audit.attach sys : Audit.t);
      let render = System.new_app sys ~name:"render" in
      let duty = System.new_app sys ~name:"duty" in
      ignore
        (W.spawn sys ~app:render ~name:"frame"
           (W.forever (fun () ->
                [
                  W.Compute (Time.us 1200);
                  W.Gpu_batch [ W.spec ~kind:"frame" ~work_s:0.002 () ];
                  W.Send { socket = 1; bytes = 8_000 };
                ])));
      ignore
        (W.spawn sys ~app:duty ~name:"duty" ~core:1
           (W.forever (fun () -> [ W.Compute (Time.ms 3); W.Sleep (Time.ms 7) ])));
      System.start sys;
      let ctl =
        if observers then begin
          let ctl = Budget.create sys () in
          Budget.set_cap ctl ~app:render.System.app_id ~watts:1.1;
          Some ctl
        end
        else None
      in
      System.run_for sys (Time.sec 1);
      let fired () = Option.value (Tm.find "sim.events_fired") ~default:0.0 in
      let e0 = fired () in
      let w0 = Gc.minor_words () in
      System.run_for sys (Time.sec 10);
      let w1 = Gc.minor_words () in
      let events = fired () -. e0 in
      Option.iter Budget.stop ctl;
      System.shutdown sys;
      (w1 -. w0) /. events)

let test_observer_allocation_bounded () =
  let bare = words_per_event ~observers:false in
  let observed = words_per_event ~observers:true in
  Alcotest.(check bool)
    (Printf.sprintf "observers cost %.2f words/event, bound %.2f"
       (observed -. bare) observer_words_bound)
    true
    (observed -. bare <= observer_words_bound)

(* Kernel allocation, bounded: the same bare machine, no observer. Its
   steady-state event path (scheduler, drivers, device models, rails and
   the workload programs) allocates only what an event really creates: a
   command, a packet, a script step's op list, the boxed floats handed to
   telemetry. The bound sits about 25% over the measured cost (see the
   change log): a handler built per event, or a list or option per pick,
   shows up as whole words per event. *)
let kernel_words_bound = 28.0

let test_kernel_allocation_bounded () =
  let bare = words_per_event ~observers:false in
  Alcotest.(check bool)
    (Printf.sprintf "kernel allocates %.2f words/event, bound %.2f" bare
       kernel_words_bound)
    true
    (bare <= kernel_words_bound)

let suite =
  [
    Alcotest.test_case "random workloads: per-rail bit-exact conservation"
      `Slow test_conservation_property;
    Alcotest.test_case "co-run exercises the full cause taxonomy" `Quick
      test_causes_and_totals;
    Alcotest.test_case "balloon blame insulation + stay_blame" `Quick
      test_balloon_blame_insulation;
    Alcotest.test_case "audit is a pure observer" `Quick test_pure_observer;
    Alcotest.test_case "shared rails bill in the reference order" `Quick
      test_order_matches_reference;
    Alcotest.test_case "observer allocation per event is bounded" `Quick
      test_observer_allocation_bounded;
    Alcotest.test_case "kernel allocation per event is bounded" `Quick
      test_kernel_allocation_bounded;
  ]
