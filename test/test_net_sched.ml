(* Tests for the fair packet scheduler and its temporal balloons. *)
open Psbox_engine
module Wifi = Psbox_hw.Wifi
module Net_sched = Psbox_kernel.Net_sched

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk ?virtual_macs () =
  let sim = Sim.create () in
  let nic = Wifi.create sim ?virtual_macs () in
  let d = Net_sched.create sim nic () in
  Net_sched.record_history d;
  (sim, nic, d)

(* A saturating sender: resubmits a packet as soon as the last one went
   out. *)
let feeder d ~app ~bytes =
  let rec loop () =
    Net_sched.send d ~app ~socket:app ~bytes ~on_sent:(fun _ -> loop ())
  in
  loop ()

let test_send_completes () =
  let sim, _, d = mk () in
  let sent = ref 0 in
  Net_sched.send d ~app:1 ~socket:1 ~bytes:10_000 ~on_sent:(fun _ -> incr sent);
  Sim.run_until sim (Time.ms 50);
  check_int "sent" 1 !sent;
  check_int "bytes counted" 10_000 (Net_sched.sent_bytes d ~app:1)

let test_byte_fairness () =
  let sim, _, d = mk () in
  (* app 1 sends big frames, app 2 small ones: byte-fair, not frame-fair *)
  feeder d ~app:1 ~bytes:24_000;
  feeder d ~app:2 ~bytes:6_000;
  Sim.run_until sim (Time.sec 4);
  let b1 = Net_sched.sent_bytes d ~app:1 and b2 = Net_sched.sent_bytes d ~app:2 in
  check_bool
    (Printf.sprintf "byte-fair (%d vs %d)" b1 b2)
    true
    (abs (b1 - b2) * 5 < b1 + b2)

let test_balloon_exclusivity () =
  let sim, _, d = mk () in
  feeder d ~app:1 ~bytes:8_000;
  feeder d ~app:2 ~bytes:8_000;
  Sim.run_until sim (Time.ms 200);
  Net_sched.sandbox d ~app:1;
  Sim.run_until sim (Time.sec 2);
  let intervals = Net_sched.balloon_intervals d in
  check_bool "balloons formed" true (intervals <> []);
  let pkts = Net_sched.packet_log d in
  let foreign_inside =
    List.exists
      (fun (b0, b1) ->
        List.exists
          (fun p ->
            p.Wifi.app <> 1
            &&
            match (p.Wifi.air_start, p.Wifi.air_end) with
            | Some s, Some f -> min f b1 > max s b0
            | _ -> false)
          pkts)
      intervals
  in
  check_bool "no foreign frame on air inside a balloon" false foreign_inside

(* On a serialized channel, temporal balloons lose no airtime when both
   apps stay backlogged: the penalty must be (near) zero and the credits
   must track each other — no overcharging of the sandboxed app. *)
let test_lost_bytes_charged () =
  let sim, _, d = mk () in
  feeder d ~app:1 ~bytes:8_000;
  feeder d ~app:2 ~bytes:8_000;
  Net_sched.sandbox d ~app:1;
  Sim.run_until sim (Time.sec 1);
  check_bool "no phantom lost bytes" true
    (Net_sched.lost_bytes_charged d < 16_000);
  check_bool "credits track" true
    (Float.abs (Net_sched.credit d ~app:1 -. Net_sched.credit d ~app:2)
     < 32_000.0)

let test_sandboxed_absorbs_loss () =
  let sim, _, d = mk () in
  feeder d ~app:1 ~bytes:8_000;
  feeder d ~app:2 ~bytes:8_000;
  Sim.run_until sim (Time.sec 1);
  let b2_before = Net_sched.sent_bytes d ~app:2 in
  Net_sched.sandbox d ~app:1;
  Sim.run_until sim (Time.sec 3);
  let b2_rate_after = (Net_sched.sent_bytes d ~app:2 - b2_before) / 2 in
  check_bool
    (Printf.sprintf "unsandboxed keeps its share (%d vs %d)" b2_before b2_rate_after)
    true
    (float_of_int (abs (b2_rate_after - b2_before)) /. float_of_int b2_before < 0.05)

(* Foreign RX is deferred during balloons only with virtual MACs (the
   paper's §4.2/§5 limitation). *)
let test_rx_deferral_with_virtual_macs () =
  let sim, _, d = mk ~virtual_macs:true () in
  feeder d ~app:1 ~bytes:8_000;
  feeder d ~app:2 ~bytes:2_000;
  Net_sched.sandbox d ~app:1;
  Sim.run_until sim (Time.ms 300);
  (* inject a foreign RX while a balloon is open; with vMACs it must not go
     on air before the balloon closes *)
  let rec wait_for_balloon () =
    if not (Net_sched.balloon_open d) then begin
      Sim.run_until sim (Sim.now sim + Time.ms 1);
      wait_for_balloon ()
    end
  in
  wait_for_balloon ();
  let balloon_was_open_at = Sim.now sim in
  let rx_done = ref None in
  Net_sched.deliver_rx d ~app:2 ~socket:2 ~bytes:1500 ~on_rx:(fun p ->
      rx_done := p.Wifi.air_start);
  Sim.run_until sim (Sim.now sim + Time.sec 1);
  (match !rx_done with
  | Some s ->
      let inside_that_balloon =
        List.exists
          (fun (b0, b1) -> balloon_was_open_at >= b0 && s >= b0 && s < b1)
          (Net_sched.balloon_intervals d)
      in
      check_bool "foreign RX deferred out of the balloon" false inside_that_balloon
  | None -> Alcotest.fail "rx never delivered")

let test_rx_pollutes_without_virtual_macs () =
  let sim, _, d = mk ~virtual_macs:false () in
  feeder d ~app:1 ~bytes:8_000;
  Net_sched.sandbox d ~app:1;
  Sim.run_until sim (Time.ms 100);
  let rec wait_for_balloon () =
    if not (Net_sched.balloon_open d) then begin
      Sim.run_until sim (Sim.now sim + Time.ms 1);
      wait_for_balloon ()
    end
  in
  wait_for_balloon ();
  let rx_started = ref None in
  Net_sched.deliver_rx d ~app:2 ~socket:2 ~bytes:200 ~on_rx:(fun p ->
      rx_started := p.Wifi.air_start);
  Sim.run_until sim (Sim.now sim + Time.ms 500);
  check_bool "foreign RX was received (not deferred)" true (!rx_started <> None)

let test_own_rx_metered_in_balloon () =
  let sim, _, d = mk () in
  feeder d ~app:1 ~bytes:8_000;
  feeder d ~app:2 ~bytes:8_000;
  Net_sched.sandbox d ~app:1;
  Sim.run_until sim (Time.ms 100);
  let rx = ref None in
  Net_sched.deliver_rx d ~app:1 ~socket:1 ~bytes:3_000 ~on_rx:(fun p ->
      rx := p.Wifi.air_start);
  Sim.run_until sim (Sim.now sim + Time.sec 1);
  (match !rx with
  | Some s ->
      let inside =
        List.exists
          (fun (b0, b1) -> s >= b0 && s <= b1)
          (Net_sched.balloon_intervals d)
      in
      check_bool "own RX lands inside a balloon" true inside
  | None -> Alcotest.fail "own rx never delivered")

(* Order oracle, as for the accelerator driver: the same random sends,
   rate gates and sandbox switches drive this scheduler and the
   list-building reference in [Ref_drivers]; both must dispatch the same
   apps with the same latencies, and end on the same credits and lost-byte
   charge, to the bit. *)
type op =
  | Send of int * int (* app, bytes *)
  | Rate of int * float option (* app, bytes per second *)
  | Sandbox of int
  | Unsandbox

let prop_picks_match_reference =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (8, map2 (fun a b -> Send (a, b)) (int_range 1 4) (int_range 100 30_000));
        ( 2,
          map2
            (fun a r -> Rate (a, r))
            (int_range 1 4)
            (opt (float_range 1e4 2e6)) );
        (1, map (fun a -> Sandbox a) (int_range 1 4));
        (1, return Unsandbox);
      ]
  in
  let gen =
    pair (int_range 1 3) (list_size (int_range 1 40) (pair (int_range 0 150) op))
  in
  let print (window, ops) =
    Printf.sprintf "window %d: %s" window
      (String.concat "; "
         (List.map
            (fun (ms, op) ->
              match op with
              | Send (a, b) -> Printf.sprintf "%dms send app%d %dB" ms a b
              | Rate (a, Some r) -> Printf.sprintf "%dms rate app%d %h" ms a r
              | Rate (a, None) -> Printf.sprintf "%dms unrate app%d" ms a
              | Sandbox a -> Printf.sprintf "%dms sandbox app%d" ms a
              | Unsandbox -> Printf.sprintf "%dms unsandbox" ms)
            ops))
  in
  QCheck.Test.make ~name:"scheduler picks match the list-building reference"
    ~count:300 (QCheck.make ~print gen) (fun (window, ops) ->
      let sim = Sim.create () and rsim = Sim.create () in
      let d = Net_sched.create sim (Wifi.create sim ()) ~window () in
      Net_sched.record_history d;
      let r = Ref_drivers.Net_ref.create rsim (Wifi.create rsim ()) ~window in
      List.iter
        (fun (ms, op) ->
          let at = Time.ms ms in
          let both f g =
            ignore (Sim.schedule_at sim at f);
            ignore (Sim.schedule_at rsim at g)
          in
          match op with
          | Send (app, bytes) ->
              both
                (fun () -> Net_sched.send d ~app ~socket:1 ~bytes ~on_sent:ignore)
                (fun () -> Ref_drivers.Net_ref.send r ~app ~bytes)
          | Rate (app, lim) ->
              both
                (fun () -> Net_sched.set_rate d ~app lim)
                (fun () -> Ref_drivers.Net_ref.set_rate r ~app lim)
          | Sandbox app ->
              (* one sandboxed app at a time *)
              both
                (fun () ->
                  match Net_sched.sandboxed d with
                  | None -> Net_sched.sandbox d ~app
                  | Some _ -> ())
                (fun () ->
                  match r.Ref_drivers.Net_ref.sandboxed with
                  | None -> Ref_drivers.Net_ref.sandbox r ~app
                  | Some _ -> ())
          | Unsandbox ->
              both
                (fun () -> Net_sched.unsandbox d)
                (fun () -> Ref_drivers.Net_ref.unsandbox r))
        ops;
      Sim.run_until sim (Time.sec 3);
      Sim.run_until rsim (Time.sec 3);
      let bits x = Int64.bits_of_float x in
      Net_sched.dispatch_latencies_us d = Ref_drivers.Net_ref.dispatched r
      && Net_sched.lost_bytes_charged d = Ref_drivers.Net_ref.lost_bytes_charged r
      && List.for_all
           (fun app ->
             bits (Net_sched.credit d ~app) = bits (Ref_drivers.Net_ref.credit r ~app))
           [ 1; 2; 3; 4 ])

(* The NIC's mode adaptation keeps a ring of recent frame airtimes with a
   running sum; on any stream of frames it must pick the TX level the
   list filter in [Ref_drivers.adapted_level] picks. Each frame goes on
   the air the moment it is handed over (the NIC is idle then), a gap
   after the previous one ended, so the level read right after [transmit]
   is the one the frame got. *)
let prop_mode_adaptation_matches_reference =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 300)
        (pair (frequency [ (3, return 0); (2, int_range 0 5_000); (1, int_range 0 300_000) ])
           (int_range 50 60_000)))
  in
  let print frames =
    String.concat "; "
      (List.map (fun (gap, bytes) -> Printf.sprintf "+%dus %dB" gap bytes) frames)
  in
  QCheck.Test.make ~name:"mode adaptation matches the list filter" ~count:200
    (QCheck.make ~print gen) (fun frames ->
      let sim = Sim.create () in
      let nic = Wifi.create sim () in
      let levels = Wifi.tx_level_count nic in
      let recent = ref [] and ok = ref true and rest = ref frames in
      let send_next () =
        match !rest with
        | [] -> ()
        | (gap, bytes) :: more ->
            rest := more;
            ignore
              (Sim.schedule_after sim (Time.us gap) (fun () ->
                   let now = Sim.now sim in
                   Wifi.transmit nic (Wifi.packet ~app:1 ~socket:1 ~bytes ());
                   if
                     Wifi.tx_level nic
                     <> Ref_drivers.adapted_level ~levels ~now !recent
                   then ok := false))
      in
      Wifi.set_on_sent nic (fun p ->
          (match (p.Wifi.air_start, p.Wifi.air_end) with
          | Some t0, Some t1 -> recent := (t1, t1 - t0) :: !recent
          | _ -> ok := false);
          send_next ());
      send_next ();
      Sim.run sim;
      !ok && !rest = [])

let suite =
  [
    ("send completes", `Quick, test_send_completes);
    ("byte fairness", `Quick, test_byte_fairness);
    ("balloon exclusivity", `Quick, test_balloon_exclusivity);
    ("lost bytes charged", `Quick, test_lost_bytes_charged);
    ("unsandboxed keeps its share", `Quick, test_sandboxed_absorbs_loss);
    ("rx deferral with virtual MACs", `Quick, test_rx_deferral_with_virtual_macs);
    ("rx not deferred without virtual MACs", `Quick, test_rx_pollutes_without_virtual_macs);
    ("own rx metered in balloon", `Quick, test_own_rx_metered_in_balloon);
    QCheck_alcotest.to_alcotest prop_picks_match_reference;
    QCheck_alcotest.to_alcotest prop_mode_adaptation_matches_reference;
  ]
