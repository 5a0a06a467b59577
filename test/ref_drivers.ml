(* Reference fair schedulers: the accelerator driver and the packet
   scheduler as they were first written, with their per-app state in hash
   tables and their picks built from lists: the backlogged apps gathered
   by a [Hashtbl.fold], then filtered, folded and searched. In-flight
   counts come from filtering the commands and frames handed to the
   device, as the device models once computed them. The array-backed
   drivers must dispatch the same apps at the same instants and reach the
   same vruntime and credit floats, to the bit. Balloon listeners, history
   and telemetry are left out: they decide nothing. Both sides share one
   guard the first versions lacked: a sandboxed app is not given a balloon
   that would close at the same instant it opens (see [pump]). *)
open Psbox_engine

type phase = Normal | Drain_others | Serve | Drain_psbox
type gate = { mutable g_rate : float; mutable g_next : Time.t }

module Accel_ref = struct
  module A = Psbox_hw.Accel

  type policy = Fair | Round_robin
  type pending = { p_cmd : A.command; p_enqueued : Time.t }

  type t = {
    sim : Sim.t;
    dev : A.t;
    policy : policy;
    window : int;
    queues : (int, pending Queue.t) Hashtbl.t;
    callbacks : (int, pending) Hashtbl.t;
    vrt : (int, float) Hashtbl.t;
    mutable vtime : float;
    mutable rr_order : int list;
    mutable in_flight : A.command list;
    mutable sandboxed : int option;
    mutable unsandboxing : bool;
    mutable phase : phase;
    mutable drain_started : Time.t;
    mutable drain_busy_mark : float;
    mutable serve_started : Time.t;
    gates : (int, gate) Hashtbl.t;
    mutable gate_pump : Sim.handle;
    mutable gate_at : Time.t;
    mutable dispatched : (int * float) list; (* (app, latency us), newest first *)
  }

  let queue_of d app =
    match Hashtbl.find_opt d.queues app with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.add d.queues app q;
        if not (List.mem app d.rr_order) then d.rr_order <- d.rr_order @ [ app ];
        q

  let vrt_of d app =
    match Hashtbl.find_opt d.vrt app with
    | Some v -> v
    | None ->
        Hashtbl.add d.vrt app d.vtime;
        d.vtime

  let add_vrt d app delta = Hashtbl.replace d.vrt app (vrt_of d app +. delta)
  let units_f d = float_of_int (A.units d.dev)

  let in_flight_of d ~app =
    List.length (List.filter (fun c -> c.A.app = app) d.in_flight)

  let backlogged d =
    Hashtbl.fold
      (fun app q acc -> if Queue.is_empty q then acc else app :: acc)
      d.queues []

  let pick_fair d apps =
    match apps with
    | [] -> None
    | _ ->
        Some
          (List.fold_left
             (fun best app -> if vrt_of d app < vrt_of d best then app else best)
             (List.hd apps) (List.tl apps))

  let pick_rr d apps =
    let rec find = function
      | [] -> None
      | app :: rest -> if List.mem app apps then Some app else find rest
    in
    match find d.rr_order with
    | Some app ->
        d.rr_order <- List.filter (fun a -> a <> app) d.rr_order @ [ app ];
        Some app
    | None -> None

  let eligible d app =
    match Hashtbl.find_opt d.gates app with
    | Some g -> g.g_next <= Sim.now d.sim
    | None -> true

  let charge_gate d app cmd =
    match Hashtbl.find_opt d.gates app with
    | Some g ->
        let cost = cmd.A.work_s *. float_of_int cmd.A.units in
        let now = Sim.now d.sim in
        let base = if g.g_next > now then g.g_next else now in
        g.g_next <- base + Time.of_sec_f (cost /. g.g_rate)
    | None -> ()

  let pick_app d =
    let apps =
      List.filter (fun a -> d.sandboxed = Some a || eligible d a) (backlogged d)
    in
    match d.policy with
    | Fair -> pick_fair d apps
    | Round_robin -> pick_rr d apps

  let effective_sandbox_vrt d app =
    let base = vrt_of d app in
    match d.phase with
    | Serve | Drain_psbox ->
        base +. (Time.to_sec_f (Sim.now d.sim - d.serve_started) *. units_f d)
    | Normal | Drain_others -> base

  let should_yield d app =
    let others = List.filter (fun a -> a <> app) (backlogged d) in
    match others with
    | [] -> false
    | _ -> (
        d.unsandboxing
        || (Queue.is_empty (queue_of d app) && in_flight_of d ~app = 0)
        ||
        match d.policy with
        | Round_robin -> Queue.is_empty (queue_of d app)
        | Fair -> (
            match pick_fair d others with
            | Some best -> vrt_of d best < effective_sandbox_vrt d app
            | None -> false))

  let active_floor d =
    let floor = ref None in
    Hashtbl.iter
      (fun app q ->
        if (not (Queue.is_empty q)) || in_flight_of d ~app > 0 then begin
          let v = vrt_of d app in
          match !floor with Some f when f <= v -> () | _ -> floor := Some v
        end)
      d.queues;
    !floor

  let dispatch d app =
    (if d.phase <> Serve then
       match active_floor d with
       | Some f -> d.vtime <- Float.max d.vtime f
       | None -> ());
    let p = Queue.pop (queue_of d app) in
    d.dispatched <-
      (app, Time.to_us_f (Sim.now d.sim - p.p_enqueued)) :: d.dispatched;
    Hashtbl.replace d.callbacks p.p_cmd.A.id p;
    charge_gate d app p.p_cmd;
    d.in_flight <- d.in_flight @ [ p.p_cmd ];
    A.submit d.dev p.p_cmd

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
              A.in_flight d.dev < d.window && not (Queue.is_empty (queue_of d app))
            then begin
              dispatch d app;
              pump d
            end)
    | Normal ->
        if A.in_flight d.dev < d.window then begin
          match pick_app d with
          | Some app when d.sandboxed = Some app ->
              if A.in_flight d.dev = 0 && should_yield d app then arm_gate_pump d
              else begin
                d.phase <- Drain_others;
                d.drain_started <- Sim.now d.sim;
                d.drain_busy_mark <- A.busy_unit_seconds d.dev;
                check_drain d
              end
          | Some app ->
              dispatch d app;
              pump d
          | None -> arm_gate_pump d
        end

  and arm_gate_pump d =
    let next =
      List.fold_left
        (fun acc app ->
          match Hashtbl.find_opt d.gates app with
          | Some g when g.g_next > Sim.now d.sim -> (
              match acc with
              | Some t when t <= g.g_next -> acc
              | Some _ | None -> Some g.g_next)
          | Some _ | None -> acc)
        None (backlogged d)
    in
    match next with
    | None -> ()
    | Some t ->
        if Sim.is_none d.gate_pump || d.gate_at > t then begin
          Sim.cancel d.sim d.gate_pump;
          d.gate_at <- t;
          d.gate_pump <-
            Sim.schedule_at d.sim t (fun () ->
                d.gate_pump <- Sim.none;
                pump d)
        end

  and check_drain d =
    match d.phase with
    | Drain_others -> if A.in_flight d.dev = 0 then enter_serve d
    | Drain_psbox -> if A.in_flight d.dev = 0 then exit_serve d
    | Normal | Serve -> ()

  and enter_serve d =
    (match d.sandboxed with
    | Some app ->
        let dur = Time.to_sec_f (Sim.now d.sim - d.drain_started) in
        let busy = A.busy_unit_seconds d.dev -. d.drain_busy_mark in
        add_vrt d app (Float.max 0.0 ((dur *. units_f d) -. busy))
    | None -> ());
    d.phase <- Serve;
    d.serve_started <- Sim.now d.sim;
    pump d

  and exit_serve d =
    (match d.sandboxed with
    | Some app ->
        let dur = Time.to_sec_f (Sim.now d.sim - d.serve_started) in
        add_vrt d app (dur *. units_f d)
    | None -> ());
    d.phase <- Normal;
    if d.unsandboxing then begin
      d.sandboxed <- None;
      d.unsandboxing <- false
    end;
    pump d

  let on_device_complete d cmd =
    d.in_flight <- List.filter (fun c -> c.A.id <> cmd.A.id) d.in_flight;
    (match Hashtbl.find_opt d.callbacks cmd.A.id with
    | Some _ ->
        Hashtbl.remove d.callbacks cmd.A.id;
        let sandbox_billed =
          d.sandboxed = Some cmd.A.app && (d.phase = Serve || d.phase = Drain_psbox)
        in
        if not sandbox_billed then begin
          let occupancy =
            match (cmd.A.started_at, cmd.A.finished_at) with
            | Some t0, Some t1 -> Time.to_sec_f (t1 - t0) *. float_of_int cmd.A.units
            | _ -> cmd.A.work_s *. float_of_int cmd.A.units
          in
          add_vrt d cmd.A.app occupancy
        end
    | None -> ());
    check_drain d;
    pump d

  let create sim dev ~policy ~window =
    let d =
      {
        sim;
        dev;
        policy;
        window;
        queues = Hashtbl.create 8;
        callbacks = Hashtbl.create 32;
        vrt = Hashtbl.create 8;
        vtime = 0.0;
        rr_order = [];
        in_flight = [];
        sandboxed = None;
        unsandboxing = false;
        phase = Normal;
        drain_started = Time.zero;
        drain_busy_mark = 0.0;
        serve_started = Time.zero;
        gates = Hashtbl.create 4;
        gate_pump = Sim.none;
        gate_at = Time.zero;
        dispatched = [];
      }
    in
    A.set_on_complete dev (fun cmd -> on_device_complete d cmd);
    d

  let set_rate d ~app limit =
    (match limit with
    | None -> Hashtbl.remove d.gates app
    | Some r -> (
        let r = Float.max r 1e-9 in
        match Hashtbl.find_opt d.gates app with
        | Some g -> g.g_rate <- r
        | None -> Hashtbl.add d.gates app { g_rate = r; g_next = Time.zero }));
    pump d

  let submit d ~app cmd =
    let p = { p_cmd = cmd; p_enqueued = Sim.now d.sim } in
    let was_idle = Queue.is_empty (queue_of d app) && in_flight_of d ~app = 0 in
    if was_idle then begin
      let bonus = 0.002 *. units_f d in
      Hashtbl.replace d.vrt app (Float.max (vrt_of d app) (d.vtime -. bonus))
    end;
    Queue.push p (queue_of d app);
    pump d

  let sandbox d ~app =
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

  let vruntime d ~app = vrt_of d app
  let dispatched d = List.rev d.dispatched
end

module Net_ref = struct
  module W = Psbox_hw.Wifi

  type pending = { p_pkt : W.pkt; p_enqueued : Time.t }

  type t = {
    sim : Sim.t;
    nic : W.t;
    window : int;
    queues : (int, pending Queue.t) Hashtbl.t;
    callbacks : (int, pending) Hashtbl.t;
    credit : (int, float) Hashtbl.t;
    mutable vtime : float;
    mutable in_flight : W.pkt list;
    mutable sandboxed : int option;
    mutable unsandboxing : bool;
    mutable phase : phase;
    mutable serve_started : Time.t;
    mutable serve_air_mark : float;
    mutable lost_charged : int;
    gates : (int, gate) Hashtbl.t;
    mutable gate_pump : Sim.handle;
    mutable gate_at : Time.t;
    mutable dispatched : (int * float) list; (* (app, latency us), newest first *)
  }

  let queue_of d app =
    match Hashtbl.find_opt d.queues app with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.add d.queues app q;
        q

  let credit_of d app =
    match Hashtbl.find_opt d.credit app with
    | Some c -> c
    | None ->
        Hashtbl.add d.credit app d.vtime;
        d.vtime

  let add_credit d app delta =
    Hashtbl.replace d.credit app (credit_of d app +. delta)

  let in_flight_of d ~app =
    List.length (List.filter (fun p -> p.W.app = app) d.in_flight)

  let backlogged d =
    Hashtbl.fold
      (fun app q acc -> if Queue.is_empty q then acc else app :: acc)
      d.queues []

  let eligible d app =
    match Hashtbl.find_opt d.gates app with
    | Some g -> g.g_next <= Sim.now d.sim
    | None -> true

  let charge_gate d app (pkt : W.pkt) =
    match Hashtbl.find_opt d.gates app with
    | Some g when pkt.W.dir = `Tx ->
        let now = Sim.now d.sim in
        let base = if g.g_next > now then g.g_next else now in
        g.g_next <- base + Time.of_sec_f (float_of_int pkt.W.bytes /. g.g_rate)
    | Some _ | None -> ()

  let pick_app d =
    match
      List.filter (fun a -> d.sandboxed = Some a || eligible d a) (backlogged d)
    with
    | [] -> None
    | apps ->
        Some
          (List.fold_left
             (fun best app ->
               if credit_of d app < credit_of d best then app else best)
             (List.hd apps) (List.tl apps))

  let should_yield d app =
    let others = List.filter (fun a -> a <> app) (backlogged d) in
    match others with
    | [] -> false
    | _ ->
        d.unsandboxing
        || (Queue.is_empty (queue_of d app) && in_flight_of d ~app = 0)
        || List.exists (fun a -> credit_of d a < credit_of d app) others

  let active_floor d =
    let floor = ref None in
    Hashtbl.iter
      (fun app q ->
        if (not (Queue.is_empty q)) || in_flight_of d ~app > 0 then begin
          let c = credit_of d app in
          match !floor with Some f when f <= c -> () | _ -> floor := Some c
        end)
      d.queues;
    !floor

  let dispatch d app =
    (if d.phase <> Serve then
       match active_floor d with
       | Some f -> d.vtime <- Float.max d.vtime f
       | None -> ());
    let p = Queue.pop (queue_of d app) in
    d.dispatched <-
      (app, Time.to_us_f (Sim.now d.sim - p.p_enqueued)) :: d.dispatched;
    Hashtbl.replace d.callbacks p.p_pkt.W.id p;
    charge_gate d app p.p_pkt;
    d.in_flight <- d.in_flight @ [ p.p_pkt ];
    W.transmit d.nic p.p_pkt

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
              W.in_flight d.nic < d.window && not (Queue.is_empty (queue_of d app))
            then begin
              dispatch d app;
              pump d
            end)
    | Normal ->
        if W.in_flight d.nic < d.window then begin
          match pick_app d with
          | Some app when d.sandboxed = Some app ->
              if W.in_flight d.nic = 0 && should_yield d app then arm_gate_pump d
              else begin
                d.phase <- Drain_others;
                check_drain d
              end
          | Some app ->
              dispatch d app;
              pump d
          | None -> arm_gate_pump d
        end

  and arm_gate_pump d =
    let next =
      List.fold_left
        (fun acc app ->
          match Hashtbl.find_opt d.gates app with
          | Some g when g.g_next > Sim.now d.sim -> (
              match acc with
              | Some t when t <= g.g_next -> acc
              | Some _ | None -> Some g.g_next)
          | Some _ | None -> acc)
        None (backlogged d)
    in
    match next with
    | None -> ()
    | Some t ->
        if Sim.is_none d.gate_pump || d.gate_at > t then begin
          Sim.cancel d.sim d.gate_pump;
          d.gate_at <- t;
          d.gate_pump <-
            Sim.schedule_at d.sim t (fun () ->
                d.gate_pump <- Sim.none;
                pump d)
        end

  and check_drain d =
    match d.phase with
    | Drain_others -> if W.in_flight d.nic = 0 then enter_serve d
    | Drain_psbox -> if W.in_flight d.nic = 0 then exit_serve d
    | Normal | Serve -> ()

  and enter_serve d =
    d.phase <- Serve;
    d.serve_started <- Sim.now d.sim;
    d.serve_air_mark <- W.airtime_seconds d.nic;
    pump d

  and exit_serve d =
    let now = Sim.now d.sim in
    (match d.sandboxed with
    | Some app ->
        let queued_foreign =
          Hashtbl.fold
            (fun a q acc ->
              if a = app then acc
              else Queue.fold (fun acc p -> acc + p.p_pkt.W.bytes) acc q)
            d.queues 0
        in
        let dur = Time.to_sec_f (now - d.serve_started) in
        let used = W.airtime_seconds d.nic -. d.serve_air_mark in
        let wasted_bytes =
          int_of_float (Float.max 0.0 (dur -. used) *. W.rate_bps d.nic /. 8.0)
        in
        let lost = min queued_foreign wasted_bytes in
        d.lost_charged <- d.lost_charged + lost;
        add_credit d app (float_of_int lost)
    | None -> ());
    d.phase <- Normal;
    if d.unsandboxing then begin
      d.sandboxed <- None;
      d.unsandboxing <- false
    end;
    pump d

  let on_nic_sent d pkt =
    d.in_flight <- List.filter (fun p -> p.W.id <> pkt.W.id) d.in_flight;
    (match Hashtbl.find_opt d.callbacks pkt.W.id with
    | Some _ ->
        Hashtbl.remove d.callbacks pkt.W.id;
        if pkt.W.dir = `Tx then add_credit d pkt.W.app (float_of_int pkt.W.bytes)
    | None -> ());
    check_drain d;
    pump d

  let create sim nic ~window =
    let d =
      {
        sim;
        nic;
        window;
        queues = Hashtbl.create 8;
        callbacks = Hashtbl.create 32;
        credit = Hashtbl.create 8;
        vtime = 0.0;
        in_flight = [];
        sandboxed = None;
        unsandboxing = false;
        phase = Normal;
        serve_started = Time.zero;
        serve_air_mark = 0.0;
        lost_charged = 0;
        gates = Hashtbl.create 4;
        gate_pump = Sim.none;
        gate_at = Time.zero;
        dispatched = [];
      }
    in
    W.set_on_sent nic (fun pkt -> on_nic_sent d pkt);
    d

  let set_rate d ~app limit =
    (match limit with
    | None -> Hashtbl.remove d.gates app
    | Some r -> (
        let r = Float.max r 1e-9 in
        match Hashtbl.find_opt d.gates app with
        | Some g -> g.g_rate <- r
        | None -> Hashtbl.add d.gates app { g_rate = r; g_next = Time.zero }));
    pump d

  let send d ~app ~bytes =
    let pkt = W.packet ~app ~socket:1 ~bytes ~dir:`Tx () in
    let p = { p_pkt = pkt; p_enqueued = Sim.now d.sim } in
    let was_idle = Queue.is_empty (queue_of d app) && in_flight_of d ~app = 0 in
    if was_idle then
      Hashtbl.replace d.credit app (Float.max (credit_of d app) d.vtime);
    Queue.push p (queue_of d app);
    pump d

  let sandbox d ~app =
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

  let credit d ~app = credit_of d app
  let lost_bytes_charged d = d.lost_charged
  let dispatched d = List.rev d.dispatched
end

(* The NIC's mode adaptation as first written: the frames that ended
   inside the trailing 200 ms window, kept as a list of (end, airtime),
   decide the TX level a frame starting [now] goes on the air at. *)
let adapted_level ~levels ~now recent =
  let window = Time.ms 200 in
  let air =
    List.fold_left
      (fun acc (_, a) -> acc + a)
      0
      (List.filter (fun (t_end, _) -> now - t_end < window) recent)
  in
  let util = float_of_int air /. float_of_int window in
  let top = levels - 1 in
  if util > 0.5 then top else if util > 0.15 then min 1 top else 0
