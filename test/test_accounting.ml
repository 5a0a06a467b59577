(* Tests for the prior-art accounting heuristics. *)
open Psbox_engine
module Usage = Psbox_accounting.Usage
module Split = Psbox_accounting.Split

let check_float e = Alcotest.(check (float e))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let span app start stop share = { Usage.app; start; stop; share }
let total_attributed r = List.fold_left (fun a (_, e) -> a +. e) 0.0 r

(* A share feed with no kernel behind it: the test publishes the changes
   on its bus, as a scheduler or driver would. *)
let test_feed rail =
  {
    Psbox_kernel.System.rail;
    subsystem = "dev";
    dvfs = None;
    changes = Bus.create ();
    current = (fun () -> []);
  }

let publish_share (f : Psbox_kernel.System.feed) ~at ~app share =
  Bus.publish f.changes { Share_table.at; app; share }

let flat_tl w =
  let tl = Timeline.create ~initial:w () in
  tl

let test_segments_sweep () =
  let usages = [ span 1 0 100 0.5; span 2 50 150 0.5 ] in
  let segs = Usage.segments usages ~from:0 ~until:200 in
  check_int "four segments" 4 (List.length segs);
  let s2 = List.nth segs 1 in
  check_int "overlap start" 50 s2.Usage.t0;
  check_int "overlap end" 100 s2.Usage.t1;
  check_int "two sharers" 2 (List.length s2.Usage.shares);
  let s4 = List.nth segs 3 in
  Alcotest.(check (list (pair int (float 0.0)))) "gap empty" [] s4.Usage.shares

let test_segments_clipping () =
  let usages = [ span 1 (-50) 1000 1.0 ] in
  let segs = Usage.segments usages ~from:0 ~until:100 in
  check_int "one segment" 1 (List.length segs);
  let s = List.hd segs in
  check_int "clipped start" 0 s.Usage.t0;
  check_int "clipped end" 100 s.Usage.t1

let test_usage_split_proportional () =
  (* 10 W rail; app1 uses 2x the share of app2 over the same interval *)
  let tl = flat_tl 10.0 in
  let usages = [ span 1 0 Time.(sec 1) 0.5; span 2 0 Time.(sec 1) 0.25 ] in
  let r = Split.usage_split tl usages ~from:0 ~until:(Time.sec 1) in
  check_float 1e-9 "app1 gets 2/3" (10.0 *. 2.0 /. 3.0) (List.assoc 1 r);
  check_float 1e-9 "app2 gets 1/3" (10.0 /. 3.0) (List.assoc 2 r);
  check_float 1e-9 "conserves busy energy" 10.0 (total_attributed r)

let test_usage_split_ignores_idle () =
  let tl = flat_tl 10.0 in
  let usages = [ span 1 0 (Time.ms 500) 1.0 ] in
  let r = Split.usage_split tl usages ~from:0 ~until:(Time.sec 1) in
  check_float 1e-9 "only the busy half attributed" 5.0 (total_attributed r)

let test_even_split () =
  let tl = flat_tl 6.0 in
  let usages = [ span 1 0 Time.(sec 1) 0.9; span 2 0 Time.(sec 1) 0.1 ] in
  let r = Split.even_split tl usages ~from:0 ~until:(Time.sec 1) in
  check_float 1e-9 "even regardless of share" 3.0 (List.assoc 1 r);
  check_float 1e-9 "even regardless of share (2)" 3.0 (List.assoc 2 r)

let test_last_entity_tail () =
  let tl = flat_tl 2.0 in
  (* app1 active 0..0.5s, then nobody: the tail goes to app1 *)
  let usages = [ span 1 0 (Time.ms 500) 1.0 ] in
  let r = Split.last_entity tl usages ~from:0 ~until:(Time.sec 1) in
  check_float 1e-9 "app1 charged busy + tail" 2.0 (List.assoc 1 r)

let test_last_entity_handoff () =
  let tl = flat_tl 2.0 in
  let usages = [ span 1 0 (Time.ms 200) 1.0; span 2 (Time.ms 600) (Time.ms 800) 1.0 ] in
  let r = Split.last_entity tl usages ~from:0 ~until:(Time.sec 1) in
  (* app1: 0..200 busy + 200..600 tail = 1.2 J; app2: 600..800 + 800..1000 = 0.8 J *)
  check_float 1e-9 "app1" 1.2 (List.assoc 1 r);
  check_float 1e-9 "app2" 0.8 (List.assoc 2 r)

let test_shared_baseline () =
  let tl = flat_tl 5.0 in
  let usages = [ span 1 0 Time.(sec 1) 0.75; span 2 0 Time.(sec 1) 0.25 ] in
  let r = Split.shared_baseline tl ~idle_w:1.0 usages ~from:0 ~until:(Time.sec 1) in
  (* baseline 1 J split evenly (0.5 each); dynamic 4 J split 3:1 *)
  check_float 1e-9 "app1" 3.5 (List.assoc 1 r);
  check_float 1e-9 "app2" 1.5 (List.assoc 2 r)

let test_windowed_by_count () =
  let tl = flat_tl 4.0 in
  (* within one 100 ms window, app1 issues 3 requests, app2 one *)
  let usages =
    [
      span 1 0 (Time.ms 10) 1.0;
      span 1 (Time.ms 20) (Time.ms 30) 1.0;
      span 1 (Time.ms 40) (Time.ms 50) 1.0;
      span 2 (Time.ms 60) (Time.ms 70) 1.0;
    ]
  in
  let r = Split.windowed_by_count tl usages ~from:0 ~until:(Time.ms 100) in
  check_float 1e-9 "3/4 by count" 0.3 (List.assoc 1 r);
  check_float 1e-9 "1/4 by count" 0.1 (List.assoc 2 r)

let prop_attribution_bounded =
  QCheck.Test.make ~name:"usage_split never attributes more than rail energy"
    ~count:200
    QCheck.(
      list
        (quad (int_bound 3) (int_bound 1000) (int_bound 1000)
           (float_range 0.05 1.0)))
    (fun raw ->
      let usages =
        List.map
          (fun (app, start, len, share) ->
            span (app + 1) start (start + len + 1) share)
          raw
      in
      let tl = flat_tl 3.0 in
      let hi = 3000 in
      let total_rail = Timeline.integrate tl 0 hi in
      let check f =
        total_attributed (f tl usages ~from:0 ~until:hi)
        <= total_rail +. 1e-9
      in
      check Split.usage_split && check Split.even_split
      && check Split.last_entity
      && check (Split.windowed_by_count ?window:None))

let test_live_split_matches_offline () =
  (* Drive one scenario through both paths: the offline segment sweep over
     the recorded usage trace, and the online bus-fed splitter receiving the
     same share changes as they happen. *)
  let sim = Sim.create () in
  let rail = Psbox_hw.Power_rail.create sim ~name:"dev" ~idle_w:1.0 in
  let feed = test_feed rail in
  let lv = Split.live feed ~from:0 in
  let at t f = ignore (Sim.schedule_at sim t f) in
  let share ~app s = publish_share feed ~at:(Sim.now sim) ~app s in
  at (Time.sec 1) (fun () -> share ~app:1 0.5);
  at (Time.ms 1500) (fun () -> Psbox_hw.Power_rail.set_power rail 3.0);
  at (Time.sec 2) (fun () -> share ~app:2 1.0);
  at (Time.ms 2500) (fun () -> Psbox_hw.Power_rail.set_power rail 2.0);
  at (Time.sec 3) (fun () -> share ~app:1 0.0);
  at (Time.sec 4) (fun () -> share ~app:2 0.0);
  Sim.run_until sim (Time.sec 5);
  let usages =
    [ span 1 (Time.sec 1) (Time.sec 3) 0.5; span 2 (Time.sec 2) (Time.sec 4) 1.0 ]
  in
  let offline =
    Split.usage_split (Psbox_hw.Power_rail.timeline rail) usages ~from:0
      ~until:(Time.sec 5)
  in
  let online = Split.live_read lv ~until:(Time.sec 5) in
  check_int "same apps" (List.length offline) (List.length online);
  List.iter2
    (fun (a, e) (a', e') ->
      check_int "app" a a';
      check_float 1e-9 (Printf.sprintf "app %d energy" a) e e')
    offline online;
  (* the idle [0,1) second is attributed to nobody on both paths *)
  check_bool "idle unattributed" true
    (total_attributed online
    < Psbox_hw.Power_rail.energy_j rail ~from:0 ~until:(Time.sec 5) -. 0.5);
  Split.live_detach lv

(* The array-backed live splitter against the hash-table reference, on
   random traces: 3 to 48 apps with sparse ids below 64 (past 32 at once
   the reference table doubles its buckets), non-integer shares, share
   drops and same-instant changes, and power steps on the rail. Every
   read must agree to the bit. *)
let prop_live_matches_reference =
  let gen =
    QCheck.Gen.(
      let* k = 3 -- 48 in
      let* ids = shuffle_l (List.init 64 Fun.id) in
      let apps = Array.of_list (List.filteri (fun i _ -> i < k) ids) in
      let op =
        frequency
          [
            ( 5,
              map2
                (fun i s -> `Share (apps.(i mod k), s))
                (0 -- 63)
                (frequency [ (4, float_range 0.01 4.0); (1, return 0.0) ]) );
            (2, map (fun w -> `Power w) (float_range 0.0 5.0));
            (1, return `Read);
          ]
      in
      list_size (10 -- 300) (pair (0 -- 3_000_000) op))
  in
  let print ops =
    String.concat "; "
      (List.map
         (fun (dt, op) ->
           match op with
           | `Share (app, s) -> Printf.sprintf "+%d app%d %h" dt app s
           | `Power w -> Printf.sprintf "+%d %hW" dt w
           | `Read -> Printf.sprintf "+%d read" dt)
         ops)
  in
  QCheck.Test.make ~name:"live splitter matches the reference bit-for-bit"
    ~count:200 (QCheck.make ~print gen) (fun ops ->
      let sim = Sim.create () in
      let rail = Psbox_hw.Power_rail.create sim ~name:"dev" ~idle_w:0.5 in
      let feed = test_feed rail in
      let lv = Split.live feed ~from:0 in
      let rf = Ref_split.create rail ~from:0 in
      let same () =
        let until = Sim.now sim in
        let a = Split.live_read lv ~until and b = Ref_split.read rf ~until in
        List.length a = List.length b
        && List.for_all2
             (fun (x, j) (y, j') ->
               x = y && Int64.bits_of_float j = Int64.bits_of_float j')
             a b
      in
      let ok = ref true in
      let t = ref 0 in
      List.iter
        (fun (dt, op) ->
          t := !t + dt;
          ignore
            (Sim.schedule_at sim !t (fun () ->
                 let at = Sim.now sim in
                 match op with
                 | `Share (app, s) ->
                     publish_share feed ~at ~app s;
                     Ref_split.set_share rf ~at ~app s
                 | `Power w -> Psbox_hw.Power_rail.set_power rail w
                 | `Read -> if not (same ()) then ok := false)))
        ops;
      Sim.run_until sim (!t + 1_000_000);
      let ok = !ok && same () in
      Split.live_detach lv;
      ok)

let suite =
  [
    ("segments sweep", `Quick, test_segments_sweep);
    ("segments clipping", `Quick, test_segments_clipping);
    ("usage split proportional", `Quick, test_usage_split_proportional);
    ("usage split ignores idle", `Quick, test_usage_split_ignores_idle);
    ("even split", `Quick, test_even_split);
    ("last entity gets the tail", `Quick, test_last_entity_tail);
    ("last entity handoff", `Quick, test_last_entity_handoff);
    ("shared baseline", `Quick, test_shared_baseline);
    ("windowed by count", `Quick, test_windowed_by_count);
    ("live split matches offline", `Quick, test_live_split_matches_offline);
    QCheck_alcotest.to_alcotest prop_attribution_bounded;
    QCheck_alcotest.to_alcotest prop_live_matches_reference;
  ]
