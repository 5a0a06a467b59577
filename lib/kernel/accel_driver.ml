open Psbox_engine
module Accel = Psbox_hw.Accel
module Tm = Psbox_telemetry.Metrics
module Tt = Psbox_telemetry.Tracing

type policy = Fair | Round_robin
type buffering = Lock_requests | Per_process_queues
type phase = Normal | Drain_others | Serve | Drain_psbox

type pending = {
  p_cmd : Accel.command;
  p_cb : Accel.command -> unit;
  p_enqueued : Time.t;
}

(* Leaky-bucket rate gate: [g_next] is the earliest instant the app may
   dispatch again; each dispatch pushes it out by cost/rate. *)
type gate = { mutable g_rate : float; mutable g_next : Time.t }

type t = {
  sim : Sim.t;
  dev : Accel.t;
  policy : policy;
  buffering : buffering;
  window : int;
  confine_cost : bool;
  (* Per-app state by app id: the buffered commands ([no_queue] until the
     app first submits) and the fair-queueing vruntime ([nan] until first
     read, when it starts at the virtual time). [order] lists the apps
     with a queue in the order the picks visit them: that of the
     [Hashtbl] the driver once kept, whose fold order settled ties. *)
  mutable queues : pending Queue.t array;
  order : Share_table.t;
  mutable vrt : float array;
  callbacks : (int, pending) Hashtbl.t; (* command id -> pending *)
  done_count : (int, int) Hashtbl.t;
  vtime : Task.vclock; (* fair-queueing virtual time *)
  mutable rr_order : int list;
  mutable sandboxed : int option;
  mutable unsandboxing : bool;
  mutable phase : phase;
  mutable drain_started : Time.t;
  mutable drain_busy_mark : float;
  mutable serve_started : Time.t;
  intervals : (Time.t * Time.t) Trace.t;
  mutable interval_open : Time.t option;
  mutable on_start : unit -> unit;
  mutable on_stop : unit -> unit;
  latencies : (int * float) Trace.t;
  log : Accel.command Trace.t; (* completed commands *)
  mutable blocked_submitters : (unit -> unit) list;
      (* SGX-style [Lock_requests] stacks: submissions that arrived while a
         foreign balloon held the queue, to be accepted at flush-others *)
  share_bus : Share_table.change Bus.t;
  share_change : Share_table.change; (* the one record [publish_share] reuses *)
  gates : (int, gate) Hashtbl.t;
  mutable gate_pump : Sim.handle; (* armed wakeup, Sim.none when idle *)
  mutable gate_fire : unit -> unit; (* its handler, built once *)
  mutable gate_at : Time.t; (* instant gate_pump is aimed at *)
      (* pending wakeup for the earliest gated backlogged app *)
  (* telemetry: per-device handles resolved once at create; the trace
     track is "kernel.accel.<device>" with one lane per app *)
  tm_track : string;
  tm_dispatched : Tm.counter;
  tm_completed : Tm.counter;
  tm_lat : Tm.histogram;
  tm_gate_wakeups : Tm.counter;
}

(* The queue of an app that never submitted; never pushed to. *)
let no_queue : pending Queue.t = Queue.create ()

let device d = d.dev
let sandboxed d = d.sandboxed
let is_sandboxed d app = match d.sandboxed with Some a -> a = app | None -> false

(* Room in the per-app arrays for [app]. *)
let reserve d app =
  let n = Array.length d.vrt in
  if app >= n then begin
    let n' = max (app + 1) (2 * n) in
    let queues = Array.make n' no_queue and vrt = Array.make n' Float.nan in
    Array.blit d.queues 0 queues 0 n;
    Array.blit d.vrt 0 vrt 0 n;
    d.queues <- queues;
    d.vrt <- vrt
  end

let queue_of d app =
  reserve d app;
  let q = d.queues.(app) in
  if q != no_queue then q
  else begin
    let q = Queue.create () in
    d.queues.(app) <- q;
    Share_table.set d.order ~app 1.0;
    if not (List.mem app d.rr_order) then d.rr_order <- d.rr_order @ [ app ];
    q
  end

(* Start [app]'s vruntime at the virtual time if it has none yet; read it
   as [d.vrt.(app)] (a float returned from a function would be boxed). *)
let init_vrt d app =
  reserve d app;
  let v = d.vrt.(app) in
  if v <> v then d.vrt.(app) <- d.vtime.ns

let add_vrt d app delta =
  init_vrt d app;
  d.vrt.(app) <- d.vrt.(app) +. delta

let vruntime d ~app =
  init_vrt d app;
  d.vrt.(app)
let pending d ~app = Queue.length (queue_of d app)

let completed d ~app =
  match Hashtbl.find d.done_count app with n -> n | exception Not_found -> 0

let units_f d = float_of_int (Accel.units d.dev)
let backlogged d app = not (Queue.is_empty d.queues.(app))

let eligible d app =
  match Hashtbl.find d.gates app with
  | g -> g.g_next <= Sim.now d.sim
  | exception Not_found -> true

(* Rate-gated apps sit out the pick until their gate reopens; the sandboxed
   app is exempt (balloons are psbox's own enforcement path). *)
let candidate d app = backlogged d app && (is_sandboxed d app || eligible d app)

let charge_gate d app cmd =
  match Hashtbl.find d.gates app with
  | g ->
      let cost = cmd.Accel.work_s *. float_of_int cmd.Accel.units in
      let now = Sim.now d.sim in
      let base = if g.g_next > now then g.g_next else now in
      g.g_next <- base + Time.of_sec_f (cost /. g.g_rate)
  | exception Not_found -> ()

(* Fair: the candidate of least vruntime; a tie goes to the app visited
   last, which headed the list the [Hashtbl] fold built. *)
let pick_fair d =
  let best = ref (-1) and best_v = ref 0.0 in
  for i = d.order.Share_table.n - 1 downto 0 do
    let app = d.order.Share_table.apps.(i) in
    if candidate d app then begin
      init_vrt d app;
      let v = d.vrt.(app) in
      if !best < 0 || v < !best_v then begin
        best := app;
        best_v := v
      end
    end
  done;
  !best

let rec first_candidate d = function
  | [] -> -1
  | app :: rest -> if candidate d app then app else first_candidate d rest

let pick_rr d =
  let app = first_candidate d d.rr_order in
  if app >= 0 then
    (* rotate past the chosen app *)
    d.rr_order <- List.filter (fun a -> a <> app) d.rr_order @ [ app ];
  app

(* The app to dispatch next, or -1. *)
let pick_app d =
  match d.policy with Fair -> pick_fair d | Round_robin -> pick_rr d

let publish_share d app =
  let c = d.share_change in
  c.Share_table.at <- Sim.now d.sim;
  c.Share_table.app <- app;
  c.Share_table.share <- float_of_int (Accel.in_flight_of d.dev ~app);
  Bus.publish d.share_bus c

(* Whether the sandboxed [app] should give the device up: another app is
   backlogged and the balloon is ending, [app] has nothing left, or (fair)
   another backlogged app has less vruntime than [app]'s effective credit,
   its billed vruntime plus the whole-device time accrued so far this
   serve window. *)
let should_yield d app =
  let others = ref false and least = ref infinity in
  for i = 0 to d.order.Share_table.n - 1 do
    let a = d.order.Share_table.apps.(i) in
    if a <> app && backlogged d a then begin
      others := true;
      init_vrt d a;
      if d.vrt.(a) < !least then least := d.vrt.(a)
    end
  done;
  !others
  && (d.unsandboxing
     || Queue.is_empty (queue_of d app)
        && Accel.in_flight_of d.dev ~app = 0
     ||
     match d.policy with
     | Round_robin -> Queue.is_empty (queue_of d app)
     | Fair ->
         init_vrt d app;
         let eff =
           match d.phase with
           | Serve | Drain_psbox ->
               d.vrt.(app)
               +. (float_of_int (Sim.now d.sim - d.serve_started) /. 1e9
                  *. units_f d)
           | Normal | Drain_others -> d.vrt.(app)
         in
         !least < eff)

(* Advance the virtual time to the frontier: the least vruntime among apps
   still competing (queued in the driver or with commands in flight on the
   device). *)
let advance_vtime d =
  let found = ref false and floor = ref 0.0 in
  for i = 0 to d.order.Share_table.n - 1 do
    let app = d.order.Share_table.apps.(i) in
    if backlogged d app || Accel.in_flight_of d.dev ~app > 0 then begin
      init_vrt d app;
      let v = d.vrt.(app) in
      if not (!found && !floor <= v) then begin
        found := true;
        floor := v
      end
    end
  done;
  if !found then d.vtime.ns <- Float.max d.vtime.ns !floor

let dispatch d app =
  (* advance the frontier before popping, while the dispatched app still
     counts as active; serve-phase dispatches are billed wholesale and
     would distort it *)
  if d.phase <> Serve then advance_vtime d;
  let q = queue_of d app in
  let p = Queue.pop q in
  let lat = Time.to_us_f (Sim.now d.sim - p.p_enqueued) in
  if Trace.armed d.latencies then Trace.record d.latencies (app, lat);
  Tm.incr d.tm_dispatched;
  Tm.observe d.tm_lat lat;
  Hashtbl.replace d.callbacks p.p_cmd.Accel.id p;
  charge_gate d app p.p_cmd;
  Accel.submit d.dev p.p_cmd;
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
            Accel.in_flight d.dev < d.window
            && not (Queue.is_empty (queue_of d app))
          then begin
            dispatch d app;
            pump d
          end)
  | Normal ->
      if Accel.in_flight d.dev < d.window then begin
        let app = pick_app d in
        if app < 0 then arm_gate_pump d
        else if is_sandboxed d app then begin
          if Accel.in_flight d.dev = 0 && should_yield d app then
            (* The balloon would open and close at this instant, to yield
               to an app whose gate keeps it from dispatching, and this
               same pick would reopen it, forever: wait for the gate. *)
            arm_gate_pump d
          else begin
            d.phase <- Drain_others;
            d.drain_started <- Sim.now d.sim;
            d.drain_busy_mark <- Accel.busy_unit_seconds d.dev;
            check_drain d
          end
        end
        else begin
          dispatch d app;
          pump d
        end
      end

(* Nothing is dispatchable right now, but a gated backlogged app may become
   eligible later: keep exactly one wakeup armed at the earliest gate
   reopening, else a rate-capped app whose co-runners go quiet would stall
   until the next unrelated driver event. *)
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
  | Drain_others -> if Accel.in_flight d.dev = 0 then enter_serve d
  | Drain_psbox -> if Accel.in_flight d.dev = 0 then exit_serve d
  | Normal | Serve -> ()

and enter_serve d =
  (match d.sandboxed with
  | Some app when d.confine_cost ->
      (* bill the capacity lost while draining others to the sandboxed app *)
      let dur = Time.to_sec_f (Sim.now d.sim - d.drain_started) in
      let busy = Accel.busy_unit_seconds d.dev -. d.drain_busy_mark in
      add_vrt d app (Float.max 0.0 ((dur *. units_f d) -. busy))
  | Some _ | None -> ());
  d.phase <- Serve;
  d.serve_started <- Sim.now d.sim;
  d.interval_open <- Some (Sim.now d.sim);
  d.on_start ();
  pump d

and exit_serve d =
  (match d.sandboxed with
  | Some app when d.confine_cost ->
      let dur = Time.to_sec_f (Sim.now d.sim - d.serve_started) in
      add_vrt d app (dur *. units_f d)
  | Some _ | None -> ());
  (match d.interval_open with
  | Some t0 ->
      if Trace.armed d.intervals then
        Trace.record d.intervals (t0, Sim.now d.sim);
      (if Tt.recording () then
         let name =
           match d.sandboxed with
           | Some a -> "serve app" ^ string_of_int a
           | None -> "serve"
         in
         Tt.span ~track:d.tm_track ~lane:"balloon" ~name ~start:t0
           ~stop:(Sim.now d.sim) ());
      d.interval_open <- None
  | None -> ());
  d.on_stop ();
  d.phase <- Normal;
  if d.unsandboxing then begin
    d.sandboxed <- None;
    d.unsandboxing <- false
  end;
  (* flush-others also releases SGX-style blocked submitters *)
  let blocked = List.rev d.blocked_submitters in
  d.blocked_submitters <- [];
  List.iter (fun release -> release ()) blocked;
  pump d

let on_device_complete d cmd =
  publish_share d cmd.Accel.app;
  (match Hashtbl.find d.callbacks cmd.Accel.id with
  | p ->
      Hashtbl.remove d.callbacks cmd.Accel.id;
      Trace.record d.log cmd;
      Tm.incr d.tm_completed;
      (* guard keeps the lane-string allocation off the untraced path *)
      (if Tt.recording () then
         match (cmd.Accel.started_at, cmd.Accel.finished_at) with
         | Some t0, Some t1 ->
             Tt.span ~track:d.tm_track
               ~lane:("app" ^ string_of_int cmd.Accel.app)
               ~name:cmd.Accel.kind ~start:t0 ~stop:t1 ()
         | _ -> ());
      Hashtbl.replace d.done_count cmd.Accel.app (completed d ~app:cmd.Accel.app + 1);
      (* per-command billing, except for the sandboxed app whose serve
         windows are billed wholesale *)
      let sandbox_billed =
        d.confine_cost
        && is_sandboxed d cmd.Accel.app
        && (d.phase = Serve || d.phase = Drain_psbox)
      in
      if not sandbox_billed then begin
        let app = cmd.Accel.app in
        init_vrt d app;
        d.vrt.(app) <-
          d.vrt.(app)
          +.
          match (cmd.Accel.started_at, cmd.Accel.finished_at) with
          | Some t0, Some t1 ->
              float_of_int (t1 - t0) /. 1e9 *. float_of_int cmd.Accel.units
          | _ -> cmd.Accel.work_s *. float_of_int cmd.Accel.units
      end;
      p.p_cb cmd
  | exception Not_found -> ());
  check_drain d;
  pump d

let arm_with =
  "System.record_history (Accel_driver.record_history on a standalone driver)"

let create sim dev ?(policy = Fair) ?(buffering = Per_process_queues)
    ?(window = 2) ?(confine_cost = true) () =
  if window <= 0 then invalid_arg "Accel_driver.create: window must be positive";
  let d =
    {
      sim;
      dev;
      policy;
      buffering;
      window;
      confine_cost;
      queues = Array.make 8 no_queue;
      order = Share_table.create ();
      vrt = Array.make 8 Float.nan;
      callbacks = Hashtbl.create 32;
      done_count = Hashtbl.create 8;
      vtime = { Task.ns = 0.0 };
      rr_order = [];
      sandboxed = None;
      unsandboxing = false;
      phase = Normal;
      drain_started = Time.zero;
      drain_busy_mark = 0.0;
      serve_started = Time.zero;
      intervals = Trace.create ~reader:"Accel_driver.balloon_intervals" ~arm_with;
      interval_open = None;
      on_start = (fun () -> ());
      on_stop = (fun () -> ());
      latencies =
        Trace.create ~reader:"Accel_driver.dispatch_latencies_us" ~arm_with;
      log = Trace.create ~reader:"Accel_driver.completed_commands" ~arm_with;
      blocked_submitters = [];
      share_bus = Bus.create ();
      share_change = { Share_table.at = Time.zero; app = 0; share = 0.0 };
      gates = Hashtbl.create 4;
      gate_pump = Sim.none;
      gate_fire = ignore;
      gate_at = Time.zero;
      tm_track = "kernel.accel." ^ Accel.name dev;
      tm_dispatched =
        Tm.counter (Printf.sprintf "accel.%s.dispatched" (Accel.name dev));
      tm_completed =
        Tm.counter (Printf.sprintf "accel.%s.completed" (Accel.name dev));
      tm_lat =
        Tm.histogram
          (Printf.sprintf "accel.%s.dispatch_latency_us" (Accel.name dev))
          ~edges:[| 10.; 100.; 1_000.; 10_000.; 100_000. |];
      tm_gate_wakeups =
        Tm.counter (Printf.sprintf "accel.%s.gate_wakeups" (Accel.name dev));
    }
  in
  d.gate_fire <- (fun () -> gate_fired d);
  Accel.set_on_complete dev (fun cmd -> on_device_complete d cmd);
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
         Tt.instant ~track:d.tm_track ~lane:"gate"
           ~name:("set-rate app" ^ string_of_int app)
           ~args:[ ("units_per_s", r) ]
           now
     | None ->
         Tt.instant ~track:d.tm_track ~lane:"gate"
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

(* Whether a submission from [app] would block in the driver right now:
   with SGX-style syscall-context dispatch ([Lock_requests]), a foreign
   app's submission cannot be accepted while a balloon holds the queue for
   someone else — the locking request itself is buffered, stalling the
   submitting task (§5). Adreno-style per-process queues accept it
   asynchronously. *)
let submission_blocks d ~app =
  d.buffering = Lock_requests
  &&
  match d.sandboxed with
  | Some star -> star <> app && (d.phase = Serve || d.phase = Drain_others)
  | None -> false

let submit d ?(on_accepted = fun () -> ()) ~app cmd ~on_complete =
  if submission_blocks d ~app then
    d.blocked_submitters <-
      (fun () -> on_accepted ()) :: d.blocked_submitters;
  let p = { p_cmd = cmd; p_cb = on_complete; p_enqueued = Sim.now d.sim } in
  (* CFS-style wake placement: an app returning from idle does not bank
     credit — it resumes just below the virtual-time frontier (the wake
     bonus gives light, interactive apps dispatch priority over device
     hogs). An app billed ahead of the frontier — e.g. a sandboxed one that
     paid for balloon exclusivity — keeps its debt. *)
  let was_idle =
    Queue.is_empty (queue_of d app) && Accel.in_flight_of d.dev ~app = 0
  in
  if was_idle then begin
    let bonus = 0.002 *. units_f d in
    init_vrt d app;
    d.vrt.(app) <- Float.max d.vrt.(app) (d.vtime.ns -. bonus)
  end;
  Queue.push p (queue_of d app);
  if not (submission_blocks d ~app) then on_accepted ();
  pump d

let sandbox d ~app =
  (match d.sandboxed with
  | Some a when a <> app ->
      invalid_arg "Accel_driver.sandbox: another app is already sandboxed"
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
          (* no balloon opened yet; fall back to normal dispatch *)
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

let set_balloon_listener d ~on_start ~on_stop =
  d.on_start <- on_start;
  d.on_stop <- on_stop

let balloon_intervals d = Trace.to_list d.intervals
let balloon_open d = d.interval_open <> None
let dispatch_latencies_us d = Trace.to_list d.latencies
let completed_commands d = Trace.to_list d.log

let record_history d =
  Trace.arm d.intervals;
  Trace.arm d.latencies;
  Trace.arm d.log
