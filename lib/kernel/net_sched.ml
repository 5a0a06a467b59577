open Psbox_engine
module Wifi = Psbox_hw.Wifi
module Tm = Psbox_telemetry.Metrics
module Tt = Psbox_telemetry.Tracing

let net_track = "kernel.net"

type phase = Normal | Drain_others | Serve | Drain_psbox

type pending = {
  p_pkt : Wifi.pkt;
  p_cb : Wifi.pkt -> unit;
  p_enqueued : Time.t;
}

(* Leaky-bucket rate gate in bytes/s: [g_next] is the earliest instant the
   app may put another frame on the air. *)
type gate = { mutable g_rate : float; mutable g_next : Time.t }

type t = {
  sim : Sim.t;
  nic : Wifi.t;
  (* Per-app state by app id, as in Accel_driver: the buffered frames
     ([no_queue] until the app first sends) and the credit, bytes billed
     ([nan] until first read, when it starts at the virtual time). [order]
     lists the apps with a queue in the order the picks visit them: that
     of the [Hashtbl] the scheduler once kept, whose fold order settled
     ties. *)
  mutable queues : pending Queue.t array;
  order : Share_table.t;
  mutable credit : float array;
  callbacks : (int, pending) Hashtbl.t; (* pkt id -> pending *)
  sent : (int, int) Hashtbl.t;
  vtime : Task.vclock;
  window : int;
  mutable sandboxed : int option;
  mutable unsandboxing : bool;
  mutable phase : phase;
  mutable serve_started : Time.t;
  mutable serve_air_mark : float; (* NIC airtime at serve start *)
  intervals : (Time.t * Time.t) Trace.t;
  mutable interval_open : Time.t option;
  mutable on_start : unit -> unit;
  mutable on_stop : unit -> unit;
  mutable lost_charged : int;
  mutable rx_held : pending list; (* deferred foreign RX, oldest last *)
  latencies : (int * float) Trace.t;
  pkt_log : Wifi.pkt Trace.t; (* completed frames *)
  share_bus : Share_table.change Bus.t;
  share_change : Share_table.change; (* the one record [publish_share] reuses *)
  gates : (int, gate) Hashtbl.t;
  mutable gate_pump : Sim.handle; (* armed wakeup, Sim.none when idle *)
  mutable gate_fire : unit -> unit; (* its handler, built once *)
  mutable gate_at : Time.t; (* instant gate_pump is aimed at *)
  (* telemetry handles, resolved once at create *)
  tm_tx : Tm.counter;
  tm_rx : Tm.counter;
  tm_tx_bytes : Tm.counter;
  tm_rx_bytes : Tm.counter;
  tm_lat : Tm.histogram;
  tm_gate_wakeups : Tm.counter;
}

(* The queue of an app that never sent; never pushed to. *)
let no_queue : pending Queue.t = Queue.create ()

let nic d = d.nic
let is_sandboxed d app = match d.sandboxed with Some a -> a = app | None -> false

(* Room in the per-app arrays for [app]. *)
let reserve d app =
  let n = Array.length d.credit in
  if app >= n then begin
    let n' = max (app + 1) (2 * n) in
    let queues = Array.make n' no_queue and credit = Array.make n' Float.nan in
    Array.blit d.queues 0 queues 0 n;
    Array.blit d.credit 0 credit 0 n;
    d.queues <- queues;
    d.credit <- credit
  end

let queue_of d app =
  reserve d app;
  let q = d.queues.(app) in
  if q != no_queue then q
  else begin
    let q = Queue.create () in
    d.queues.(app) <- q;
    Share_table.set d.order ~app 1.0;
    q
  end

(* Start [app]'s credit at the virtual time if it has none yet; read it as
   [d.credit.(app)] (a float returned from a function would be boxed). *)
let init_credit d app =
  reserve d app;
  let c = d.credit.(app) in
  if c <> c then d.credit.(app) <- d.vtime.ns

let add_credit d app delta =
  init_credit d app;
  d.credit.(app) <- d.credit.(app) +. delta

let credit d ~app =
  init_credit d app;
  d.credit.(app)
let pending d ~app = Queue.length (queue_of d app)

let sent_bytes d ~app =
  match Hashtbl.find d.sent app with n -> n | exception Not_found -> 0

let backlogged d app = not (Queue.is_empty d.queues.(app))

let eligible d app =
  match Hashtbl.find d.gates app with
  | g -> g.g_next <= Sim.now d.sim
  | exception Not_found -> true

let charge_gate d app (pkt : Wifi.pkt) =
  match Hashtbl.find d.gates app with
  | g when pkt.Wifi.dir = `Tx ->
      let now = Sim.now d.sim in
      let base = if g.g_next > now then g.g_next else now in
      g.g_next <- base + Time.of_sec_f (float_of_int pkt.Wifi.bytes /. g.g_rate)
  | _ -> ()
  | exception Not_found -> ()

(* Rate-gated apps keep their queue and credit but sit out the pick until
   the gate reopens; the sandboxed app is exempt (balloons are psbox's own
   enforcement path). The pick is the least credit; a tie goes to the app
   visited last, which headed the list the [Hashtbl] fold built. Returns
   -1 if no app may send. *)
let pick_app d =
  let best = ref (-1) and best_c = ref 0.0 in
  for i = d.order.Share_table.n - 1 downto 0 do
    let app = d.order.Share_table.apps.(i) in
    if backlogged d app && (is_sandboxed d app || eligible d app) then begin
      init_credit d app;
      let c = d.credit.(app) in
      if !best < 0 || c < !best_c then begin
        best := app;
        best_c := c
      end
    end
  done;
  !best

let publish_share d app =
  let c = d.share_change in
  c.Share_table.at <- Sim.now d.sim;
  c.Share_table.app <- app;
  c.Share_table.share <- float_of_int (Wifi.in_flight_of d.nic ~app);
  Bus.publish d.share_bus c

(* Whether the sandboxed [app] should give the NIC up: another app is
   backlogged and the balloon is ending, [app] has nothing left, or another
   backlogged app has less credit. *)
let should_yield d app =
  let others = ref false and least = ref infinity in
  for i = 0 to d.order.Share_table.n - 1 do
    let a = d.order.Share_table.apps.(i) in
    if a <> app && backlogged d a then begin
      others := true;
      init_credit d a;
      if d.credit.(a) < !least then least := d.credit.(a)
    end
  done;
  !others
  && (d.unsandboxing
     || (Queue.is_empty (queue_of d app) && Wifi.in_flight_of d.nic ~app = 0)
     ||
     (init_credit d app;
      !least < d.credit.(app)))

(* Advance the virtual time to the frontier: the least credit among apps
   that are still competing (backlogged in the driver or with frames in
   flight at the NIC). Wake placement uses it so idle periods don't bank
   credit, without robbing a backlogged-but-in-flight app of its
   entitlement. *)
let advance_vtime d =
  let found = ref false and floor = ref 0.0 in
  for i = 0 to d.order.Share_table.n - 1 do
    let app = d.order.Share_table.apps.(i) in
    if backlogged d app || Wifi.in_flight_of d.nic ~app > 0 then begin
      init_credit d app;
      let c = d.credit.(app) in
      if not (!found && !floor <= c) then begin
        found := true;
        floor := c
      end
    end
  done;
  if !found then d.vtime.ns <- Float.max d.vtime.ns !floor

let dispatch d app =
  (* advance the frontier before popping, while the dispatched app still
     counts as active *)
  if d.phase <> Serve then advance_vtime d;
  let q = queue_of d app in
  let p = Queue.pop q in
  let lat = Time.to_us_f (Sim.now d.sim - p.p_enqueued) in
  if Trace.armed d.latencies then Trace.record d.latencies (app, lat);
  Tm.observe d.tm_lat lat;
  Hashtbl.replace d.callbacks p.p_pkt.Wifi.id p;
  charge_gate d app p.p_pkt;
  Wifi.transmit d.nic p.p_pkt;
  publish_share d app

let rec pump d =
  match d.phase with
  | Drain_others | Drain_psbox -> ()
  | Serve -> (
      match d.sandboxed with
      | None ->
          d.phase <- Normal;
          pump d
      | Some app ->
          if should_yield d app then begin
            d.phase <- Drain_psbox;
            check_drain d
          end
          else if
            Wifi.in_flight d.nic < d.window
            && not (Queue.is_empty (queue_of d app))
          then begin
            dispatch d app;
            pump d
          end)
  | Normal ->
      if Wifi.in_flight d.nic < d.window then begin
        let app = pick_app d in
        if app < 0 then arm_gate_pump d
        else if is_sandboxed d app then begin
          if Wifi.in_flight d.nic = 0 && should_yield d app then
            (* The balloon would open and close at this instant, to yield
               to an app whose gate keeps it from sending, and this same
               pick would reopen it, forever: wait for the gate. *)
            arm_gate_pump d
          else begin
            d.phase <- Drain_others;
            check_drain d
          end
        end
        else begin
          dispatch d app;
          pump d
        end
      end

(* Keep exactly one wakeup armed at the earliest gate reopening among
   gated backlogged apps, so a rate-capped app with quiet co-runners does
   not stall until the next unrelated NIC event. *)
and arm_gate_pump d =
  let now = Sim.now d.sim in
  let next = ref max_int in
  for i = 0 to d.order.Share_table.n - 1 do
    let app = d.order.Share_table.apps.(i) in
    if backlogged d app then
      match Hashtbl.find d.gates app with
      | g -> if g.g_next > now && g.g_next < !next then next := g.g_next
      | exception Not_found -> ()
  done;
  let t = !next in
  if t < max_int && (Sim.is_none d.gate_pump || d.gate_at > t) then begin
    Sim.cancel d.sim d.gate_pump;
    d.gate_at <- t;
    d.gate_pump <- Sim.schedule_at d.sim t d.gate_fire
  end

and gate_fired d =
  d.gate_pump <- Sim.none;
  Tm.incr d.tm_gate_wakeups;
  pump d

and check_drain d =
  match d.phase with
  | Drain_others -> if Wifi.in_flight d.nic = 0 then enter_serve d
  | Drain_psbox -> if Wifi.in_flight d.nic = 0 then exit_serve d
  | Normal | Serve -> ()

and enter_serve d =
  d.phase <- Serve;
  d.serve_started <- Sim.now d.sim;
  d.serve_air_mark <- Wifi.airtime_seconds d.nic;
  d.interval_open <- Some (Sim.now d.sim);
  d.on_start ();
  pump d

and exit_serve d =
  let now = Sim.now d.sim in
  (match d.sandboxed with
  | Some app ->
      (* lost-opportunity penalty: airtime the balloon held exclusive but
         did not use, expressed in bytes — but only up to what the buffered
         foreign packets could actually have filled *)
      let queued_foreign = ref 0 in
      for i = 0 to d.order.Share_table.n - 1 do
        let a = d.order.Share_table.apps.(i) in
        if a <> app then
          queued_foreign :=
            Queue.fold (fun acc p -> acc + p.p_pkt.Wifi.bytes) !queued_foreign
              d.queues.(a)
      done;
      let queued_foreign = !queued_foreign in
      let dur = Time.to_sec_f (now - d.serve_started) in
      let used = Wifi.airtime_seconds d.nic -. d.serve_air_mark in
      let wasted_bytes =
        int_of_float (Float.max 0.0 (dur -. used) *. Wifi.rate_bps d.nic /. 8.0)
      in
      let lost = min queued_foreign wasted_bytes in
      d.lost_charged <- d.lost_charged + lost;
      add_credit d app (float_of_int lost)
  | None -> ());
  (match d.interval_open with
  | Some t0 ->
      if Trace.armed d.intervals then Trace.record d.intervals (t0, now);
      (if Tt.recording () then
         let name =
           match d.sandboxed with
           | Some a -> "serve app" ^ string_of_int a
           | None -> "serve"
         in
         Tt.span ~track:net_track ~lane:"balloon" ~name ~start:t0 ~stop:now ());
      d.interval_open <- None
  | None -> ());
  d.on_stop ();
  d.phase <- Normal;
  if d.unsandboxing then begin
    d.sandboxed <- None;
    d.unsandboxing <- false
  end;
  (* release any deferred foreign RX *)
  let held = List.rev d.rx_held in
  d.rx_held <- [];
  List.iter
    (fun p ->
      Hashtbl.replace d.callbacks p.p_pkt.Wifi.id p;
      Wifi.transmit d.nic p.p_pkt)
    held;
  pump d

let on_nic_sent d pkt =
  Trace.record d.pkt_log pkt;
  (if pkt.Wifi.dir = `Tx then begin
     Tm.incr d.tm_tx;
     Tm.add d.tm_tx_bytes (float_of_int pkt.Wifi.bytes)
   end
   else begin
     Tm.incr d.tm_rx;
     Tm.add d.tm_rx_bytes (float_of_int pkt.Wifi.bytes)
   end);
  (if Tt.recording () then
     let name = if pkt.Wifi.dir = `Tx then "tx" else "rx" in
     let lane = "app" ^ string_of_int pkt.Wifi.app in
     let args = [ ("bytes", float_of_int pkt.Wifi.bytes) ] in
     match (pkt.Wifi.air_start, pkt.Wifi.air_end) with
     | Some t0, Some t1 ->
         Tt.span ~track:net_track ~lane ~name ~args ~start:t0 ~stop:t1 ()
     | _ -> Tt.instant ~track:net_track ~lane ~name ~args (Sim.now d.sim));
  publish_share d pkt.Wifi.app;
  (match Hashtbl.find d.callbacks pkt.Wifi.id with
  | p ->
      Hashtbl.remove d.callbacks pkt.Wifi.id;
      if pkt.Wifi.dir = `Tx then begin
        add_credit d pkt.Wifi.app (float_of_int pkt.Wifi.bytes);
        Hashtbl.replace d.sent pkt.Wifi.app
          (sent_bytes d ~app:pkt.Wifi.app + pkt.Wifi.bytes)
      end;
      p.p_cb pkt
  | exception Not_found -> ());
  check_drain d;
  pump d

let arm_with =
  "System.record_history (Net_sched.record_history on a standalone scheduler)"

let create sim nic ?(window = 1) () =
  let d =
    {
      sim;
      nic;
      queues = Array.make 8 no_queue;
      order = Share_table.create ();
      credit = Array.make 8 Float.nan;
      callbacks = Hashtbl.create 32;
      sent = Hashtbl.create 8;
      vtime = { Task.ns = 0.0 };
      window;
      sandboxed = None;
      unsandboxing = false;
      phase = Normal;
      serve_started = Time.zero;
      serve_air_mark = 0.0;
      intervals = Trace.create ~reader:"Net_sched.balloon_intervals" ~arm_with;
      interval_open = None;
      on_start = (fun () -> ());
      on_stop = (fun () -> ());
      lost_charged = 0;
      rx_held = [];
      latencies =
        Trace.create ~reader:"Net_sched.dispatch_latencies_us" ~arm_with;
      pkt_log = Trace.create ~reader:"Net_sched.packet_log" ~arm_with;
      share_bus = Bus.create ();
      share_change = { Share_table.at = Time.zero; app = 0; share = 0.0 };
      gates = Hashtbl.create 4;
      gate_pump = Sim.none;
      gate_fire = ignore;
      gate_at = Time.zero;
      tm_tx = Tm.counter "net.tx_packets";
      tm_rx = Tm.counter "net.rx_packets";
      tm_tx_bytes = Tm.counter "net.tx_bytes";
      tm_rx_bytes = Tm.counter "net.rx_bytes";
      tm_lat =
        Tm.histogram "net.dispatch_latency_us"
          ~edges:[| 10.; 100.; 1_000.; 10_000.; 100_000. |];
      tm_gate_wakeups = Tm.counter "net.gate_wakeups";
    }
  in
  d.gate_fire <- (fun () -> gate_fired d);
  Wifi.set_on_sent nic (fun pkt -> on_nic_sent d pkt);
  d

let share_bus d = d.share_bus

let set_rate d ~app limit =
  (match limit with
  | None -> Hashtbl.remove d.gates app
  | Some r ->
      let r = Float.max r 1e-9 in
      (match Hashtbl.find_opt d.gates app with
      | Some g -> g.g_rate <- r
      | None -> Hashtbl.add d.gates app { g_rate = r; g_next = Time.zero }));
  (if Tt.recording () then
     let now = Sim.now d.sim in
     match limit with
     | Some r ->
         Tt.instant ~track:net_track ~lane:"gate"
           ~name:("set-rate app" ^ string_of_int app)
           ~args:[ ("bytes_per_s", r) ]
           now
     | None ->
         Tt.instant ~track:net_track ~lane:"gate"
           ~name:("clear-rate app" ^ string_of_int app)
           now);
  pump d

let rate d ~app =
  match Hashtbl.find_opt d.gates app with
  | Some g -> Some g.g_rate
  | None -> None

let gated_until d ~app =
  match Hashtbl.find_opt d.gates app with
  | Some g when g.g_next > Sim.now d.sim -> Some g.g_next
  | Some _ | None -> None

let send d ~app ~socket ~bytes ~on_sent =
  let pkt = Wifi.packet ~app ~socket ~bytes ~dir:`Tx () in
  let p = { p_pkt = pkt; p_cb = on_sent; p_enqueued = Sim.now d.sim } in
  (* wake placement: no credit banking across idle periods *)
  let was_idle =
    Queue.is_empty (queue_of d app) && Wifi.in_flight_of d.nic ~app = 0
  in
  if was_idle then begin
    init_credit d app;
    d.credit.(app) <- Float.max d.credit.(app) d.vtime.ns
  end;
  Queue.push p (queue_of d app);
  pump d

let deliver_rx d ~app ~socket ~bytes ~on_rx =
  let pkt = Wifi.packet ~app ~socket ~bytes ~dir:`Rx () in
  let p = { p_pkt = pkt; p_cb = on_rx; p_enqueued = Sim.now d.sim } in
  if is_sandboxed d app then begin
    (* the sandboxed app's own reception: the NIC recognizes the balloon's
       (virtual) MAC, so the frame is handled inside the app's balloon and
       its power is metered for the psbox *)
    Queue.push p (queue_of d app);
    pump d
  end
  else begin
    let foreign_balloon =
      match d.sandboxed with
      | Some a -> d.interval_open <> None && a <> app
      | None -> false
    in
    if foreign_balloon && Wifi.virtual_macs d.nic then
      (* the NIC filters on the balloon's virtual MAC; hold the frame *)
      d.rx_held <- p :: d.rx_held
    else begin
      Hashtbl.replace d.callbacks pkt.Wifi.id p;
      Wifi.transmit d.nic pkt
    end
  end

let sandbox d ~app =
  (match d.sandboxed with
  | Some a when a <> app ->
      invalid_arg "Net_sched.sandbox: another app is already sandboxed"
  | Some _ | None -> ());
  d.sandboxed <- Some app;
  d.unsandboxing <- false;
  pump d

let unsandbox d =
  match d.sandboxed with
  | None -> ()
  | Some _ -> (
      match d.phase with
      | Normal ->
          d.sandboxed <- None;
          pump d
      | Drain_others ->
          d.sandboxed <- None;
          d.phase <- Normal;
          pump d
      | Serve ->
          d.unsandboxing <- true;
          d.phase <- Drain_psbox;
          check_drain d
      | Drain_psbox ->
          d.unsandboxing <- true;
          check_drain d)

let sandboxed d = d.sandboxed

let set_balloon_listener d ~on_start ~on_stop =
  d.on_start <- on_start;
  d.on_stop <- on_stop

let balloon_intervals d = Trace.to_list d.intervals
let balloon_open d = d.interval_open <> None
let lost_bytes_charged d = d.lost_charged
let dispatch_latencies_us d = Trace.to_list d.latencies
let packet_log d = Trace.to_list d.pkt_log

let record_history d =
  Trace.arm d.intervals;
  Trace.arm d.latencies;
  Trace.arm d.pkt_log
