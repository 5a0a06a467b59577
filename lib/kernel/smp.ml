open Psbox_engine
module Tm = Psbox_telemetry.Metrics
module Tt = Psbox_telemetry.Tracing

(* Telemetry track/lane naming: each per-core scheduling timeline is a lane
   of the "kernel.cfs" track; span names are the paper's app identities. *)
let cfs_track = "kernel.cfs"

let app_label = function
  | -1 -> "idle"
  | -2 -> "forced-idle"
  | a -> "app" ^ string_of_int a

type config = {
  tick : Time.span;
  wakeup_granularity : float;
  ipi_delay : Time.span;
  max_loan : float;
      (* a single coscheduling period ends once any core's loan exceeds
         this much vruntime: a balloon whose entity keeps the best credit
         on one core must still not starve waiters on the others *)
  max_period : Time.span;
      (* hard bound on one coscheduling period; re-entry is immediate if
         the balloon still holds the best credit, so this only bounds how
         stale the loan bookkeeping can get *)
  confine_cost : bool;
      (* the paper's key design: bill balloon-forced idle to the sandboxed
         app and settle scheduling loans. Disable only for the ablation
         bench, which shows unsandboxed apps losing their share without
         it. *)
  quota_period : Time.span;
      (* CFS-bandwidth style refill period for per-app CPU quotas; a
         throttled app stays off the runqueues until the next refill *)
}

let default_config =
  {
    tick = Time.ms 1;
    wakeup_granularity = 1e6;
    ipi_delay = Time.us 5;
    max_loan = 2e7;
    max_period = Time.ms 20;
    confine_cost = true;
    quota_period = Time.ms 10;
  }

type quota_state = {
  mutable q_limit : float; (* core-seconds of runtime per second, >= 0 *)
  mutable q_used : Time.span; (* runtime consumed in the current period *)
  mutable q_throttled : bool;
  mutable q_event : Sim.handle; (* analytic quota-crossing wakeup *)
  mutable q_fire : unit -> unit; (* its handler, built once per quota *)
}

type balloon = {
  b_app : int;
  b_entities : Entity.t array;
  mutable b_live : bool;
  mutable b_started : Time.t;
  mutable b_joined : int;
  mutable b_metering : bool;
  b_intervals : (Time.t * Time.t) Trace.t;
  mutable b_on_start : unit -> unit;
  mutable b_on_stop : unit -> unit;
  mutable b_total_loan : float;
  (* event handlers, built once per balloon: core j's shootdown IPI, and
     the same-instant check that ends a balloon with nothing to run *)
  mutable b_join : (unit -> unit) array;
  mutable b_idle_check : unit -> unit;
}

(* What [find_balloon] answers for an app with no balloon. *)
let no_balloon =
  {
    b_app = min_int;
    b_entities = [||];
    b_live = false;
    b_started = Time.zero;
    b_joined = 0;
    b_metering = false;
    b_intervals = Trace.create ~reader:"" ~arm_with:"";
    b_on_start = ignore;
    b_on_stop = ignore;
    b_total_loan = 0.0;
    b_join = [||];
    b_idle_check = ignore;
  }

(* [span_tag] of a core with no open span. *)
let no_span = min_int

type t = {
  sim : Sim.t;
  cpu : Psbox_hw.Cpu.t;
  cfg : config;
  rqs : Cfs.t array;
  curr_started : Time.t array;
  dispatched : Time.t array;
      (* when the core's current entity won the CPU (unlike [curr_started]
         this does not advance on accounting updates); dispatched + tick is
         the minimum quantum before a planned preemption/rotation, which is
         the role the tick grid played in the polling scheduler *)
  work_events : Sim.handle array;
  plan_events : Sim.handle array;
      (* per-core demand wakeup: the analytically-computed next interesting
         instant (vruntime crossing / idle pickup / balloon inner rotation)
         replaces the seed's blind per-core 1 ms tick *)
  mutable balloon_event : Sim.handle;
      (* single machine-wide wakeup at the live balloon's next boundary:
         min(max_period expiry, earliest loan-cap crossing, the instant the
         balloon loses the credit race on its last winning core) *)
  (* event handlers, built once at create: a core's work completion, its
     planned wakeup and its IPI reschedule, the balloon boundary and the
     quota refill *)
  work_fire : (unit -> unit) array;
  plan_fire : (unit -> unit) array;
  resched_fire : (unit -> unit) array;
  mutable balloon_fire : unit -> unit;
  mutable refill_fire : unit -> unit;
  span_tag : int array; (* app code of the open trace span per core, or no_span *)
  span_start : Time.t array; (* when each core's open span began *)
  task_entities : (int, Entity.t) Hashtbl.t; (* tid -> entity when unsandboxed *)
  mutable tasks : Task.t list; (* every spawned task not yet reaped, newest first *)
  mutable balloons : balloon list;
  mutable live : balloon option;
  trace : (int * int) Trace.span Trace.t;
  latencies : (int * float) Trace.t; (* (app, wake-to-run us) *)
  mutable stopped : bool;
  share_bus : Share_table.change Bus.t;
  share_change : Share_table.change; (* the one record [note_share] publishes *)
  share_counts : (int, int) Hashtbl.t; (* app -> cores currently running it *)
  quotas : (int, quota_state) Hashtbl.t;
  quota_order : Share_table.t; (* the apps in [quotas], in its iteration order *)
  mutable quota_epoch : Time.t option;
      (* grid anchor for refill boundaries (epoch + k * quota_period), fixed
         by the first quota ever set so demand-armed refills land on the
         same instants a periodic timer would have *)
  mutable quota_next : Sim.handle; (* armed refill boundary, if any *)
  (* telemetry handles, resolved once at create; lanes precomputed so the
     tracing hot path allocates nothing when recording is off *)
  tm_switch : Tm.counter;
  tm_core_switch : Tm.counter array;
  tm_throttles : Tm.counter;
  tm_unthrottles : Tm.counter;
  tm_wake_lat : Tm.histogram;
  tm_lanes : string array;
  (* demand-wakeup fire counters, pre-resolved (these are hot one-shots,
     so the per-call ?label lookup of Sim.schedule_at is avoided) *)
  tm_ev_preempt : Tm.counter;
  tm_ev_rotate : Tm.counter;
  tm_ev_balloon : Tm.counter;
  tm_ev_quota : Tm.counter;
  tm_ev_refill : Tm.counter;
}

let arm_with = "System.record_history"

let cpu smp = smp.cpu
let cores smp = Array.length smp.rqs

let app_tasks smp ~app = List.filter (fun t -> t.Task.app = app) smp.tasks

let sched_trace smp = smp.trace

let wakeup_latencies_us smp =
  Array.of_list (List.map snd (Trace.to_list smp.latencies))

let wakeup_latencies_of smp ~app =
  Trace.to_list smp.latencies
  |> List.filter_map (fun (a, l) -> if a = app then Some l else None)
  |> Array.of_list

let rec balloon_in app = function
  | [] -> no_balloon
  | b :: rest -> if b.b_app = app then b else balloon_in app rest

(* The app's balloon, or [no_balloon]. *)
let find_balloon smp app = balloon_in app smp.balloons

(* The task actually executing inside an entity, or [Task.none]. *)
let running_task_of e =
  match e.Entity.kind with
  | Entity.ETask t -> if t.Task.state = Task.Running then t else Task.none
  | Entity.EGroup g -> g.Entity.gcurr

let running_app smp ~core =
  let t = running_task_of (Cfs.curr smp.rqs.(core)) in
  if t == Task.none then None else Some t.Task.app

(* Whether a task of [app] is executing on [core] right now. *)
let runs_app smp core app =
  let t = running_task_of (Cfs.curr smp.rqs.(core)) in
  t != Task.none && t.Task.app = app

(* ------------------------------------------------------------------ *)
(* Trace spans                                                          *)

let share_bus smp = smp.share_bus

(* Forward hook into the quota planner (defined at the end of the module):
   an app's running-core count is the rate at which its quota drains, so
   every share change must re-aim the app's quota-crossing wakeup. *)
let quota_share_hook : (t -> int -> unit) ref = ref (fun _ _ -> ())

(* Running-core counts feed the share bus (live attribution): the idle
   tags (-1 / -2) never count, so a balloon-forced-idle core contributes
   no CPU share. Publishing is near-free when nothing subscribes. *)
let shares_of smp app =
  match Hashtbl.find smp.share_counts app with
  | c -> c
  | exception Not_found -> 0

let note_share smp app delta =
  if app >= 0 then begin
    let nw = shares_of smp app + delta in
    Hashtbl.replace smp.share_counts app nw;
    let c = smp.share_change in
    c.Share_table.at <- Sim.now smp.sim;
    c.Share_table.app <- app;
    c.Share_table.share <- float_of_int nw;
    Bus.publish smp.share_bus c;
    if Hashtbl.mem smp.quotas app then !quota_share_hook smp app
  end

(* Close the core's open span (if any) and open one tagged [tag] (none if
   [tag = no_span]); a span already open with the same tag stays open. *)
let set_span smp core tag =
  let now = Sim.now smp.sim in
  let old = smp.span_tag.(core) in
  if not (old <> no_span && old = tag) then begin
    if old <> no_span then begin
      let t0 = smp.span_start.(core) in
      if Tt.recording () then
        Tt.span ~track:cfs_track ~lane:smp.tm_lanes.(core)
          ~name:(app_label old) ~start:t0 ~stop:now ();
      if Trace.armed smp.trace then
        Trace.record smp.trace
          { Trace.start = t0; stop = now; tag = (core, old) };
      note_share smp old (-1)
    end;
    if tag <> no_span then begin
      smp.span_start.(core) <- now;
      note_share smp tag 1
    end;
    Tm.incr smp.tm_switch;
    Tm.incr smp.tm_core_switch.(core);
    smp.span_tag.(core) <- tag
  end

(* ------------------------------------------------------------------ *)
(* Core scheduling machinery                                           *)

(* Physical identity between the rq's current entity and [e]. *)
let curr_is rq e = Cfs.curr rq == e

let cancel_work smp core =
  Sim.cancel smp.sim smp.work_events.(core);
  smp.work_events.(core) <- Sim.none

(* Per-app CPU quota (CFS-bandwidth style). Only plain task entities are
   throttled: balloon groups answer to the psbox coscheduling machinery,
   not to the budget controller. *)
let throttled_app smp app =
  match Hashtbl.find smp.quotas app with
  | q -> q.q_throttled
  | exception Not_found -> false

let entity_throttled smp e =
  match e.Entity.kind with
  | Entity.ETask t -> throttled_app smp t.Task.app
  | Entity.EGroup _ -> false

let update_curr smp core =
  let rq = smp.rqs.(core) in
  let e = Cfs.curr rq in
  if e != Entity.none then begin
    let now = Sim.now smp.sim in
    let delta = now - smp.curr_started.(core) in
    if delta > 0 then begin
      let forced_idle =
        match e.Entity.kind with
        | Entity.EGroup g -> g.Entity.gcurr == Task.none
        | Entity.ETask _ -> false
      in
      if smp.cfg.confine_cost || not forced_idle then Cfs.charge rq e delta;
      let t = running_task_of e in
      if t != Task.none then begin
        t.Task.remaining <- t.Task.remaining - delta;
        match Hashtbl.find smp.quotas t.Task.app with
        | q -> q.q_used <- q.q_used + delta
        | exception Not_found -> ()
      end;
      smp.curr_started.(core) <- now
    end
  end

(* ------------------------------------------------------------------ *)
(* Demand-driven wakeup planning                                        *)

(* Analytic plans aim a wakeup at a vruntime crossing computed in floats;
   anything projected further out than this horizon is re-checked at the
   horizon instead (the fire handler verifies against live state and
   re-arms, so a clamped plan is never wrong, only re-derived). *)
let plan_horizon = Time.sec 60

let cancel_plan smp core =
  Sim.cancel smp.sim smp.plan_events.(core);
  smp.plan_events.(core) <- Sim.none

let cancel_balloon_event smp =
  Sim.cancel smp.sim smp.balloon_event;
  smp.balloon_event <- Sim.none

(* Projected vruntime of the core's current entity at the present instant,
   without touching the accounting ([update_curr] materialises the same
   quantity when the wakeup actually fires). *)
let curr_vruntime_now smp core e =
  let delta = Sim.now smp.sim - smp.curr_started.(core) in
  let charging =
    match e.Entity.kind with
    | Entity.EGroup g -> smp.cfg.confine_cost || g.Entity.gcurr != Task.none
    | Entity.ETask _ -> true
  in
  if delta <= 0 || not charging then e.Entity.vruntime.ns
  else
    e.Entity.vruntime.ns
    +. (float_of_int delta *. Cfs.nice0_weight /. e.Entity.weight)

(* Nanoseconds until a charged entity's vruntime grows by [dv], clamped to
   the planning horizon. *)
let ns_until_dv ~weight dv =
  if dv <= 0.0 then 0
  else
    let dt = dv *. weight /. Cfs.nice0_weight in
    if Float.is_finite dt && dt < float_of_int plan_horizon then
      int_of_float dt + 1
    else plan_horizon

(* The earliest instant, from [acc] ([max_int] for none), at which a
   runnable sibling of [t] in [tasks] undercuts [t]'s vruntime [v], which
   grows from [now] on. [Entity.group_pick] breaks vruntime ties by list
   order, so a tie may keep the current task: re-check >= 1 ns later,
   never at the same instant. *)
let rec earliest_crossing t v now acc = function
  | [] -> acc
  | t' :: rest ->
      let acc =
        if t'.Task.tid <> t.Task.tid && Task.is_runnable t' then
          let dv = t'.Task.vruntime.ns -. v in
          let at =
            if dv < 0.0 then now
            else now + max 1 (ns_until_dv ~weight:t.Task.weight dv)
          in
          min acc at
        else acc
      in
      earliest_crossing t v now acc rest

let put_prev smp core =
  let rq = smp.rqs.(core) in
  let e = Cfs.curr rq in
  if e != Entity.none then begin
    cancel_work smp core;
    let t = running_task_of e in
    if t != Task.none && t.Task.state = Task.Running then
      t.Task.state <- Task.Runnable;
    (match e.Entity.kind with
    | Entity.EGroup g -> g.Entity.gcurr <- Task.none
    | Entity.ETask _ -> ());
    Cfs.set_curr rq Entity.none;
    if Entity.runnable e && not (entity_throttled smp e) then Cfs.enqueue rq e;
    Psbox_hw.Cpu.set_core_busy smp.cpu ~core false;
    set_span smp core no_span
  end

(* Program advancement: drive a task's program until it yields an action
   that leaves the CPU or new work to run. Returns [`Runs] if the task has
   fresh work and should keep the CPU. *)
let rec advance smp t fuel =
  if fuel <= 0 then failwith "Smp: task program made no progress (10k steps)";
  match t.Task.program () with
  | Task.Run s -> if s <= 0 then advance smp t (fuel - 1) else (t.Task.remaining <- s; `Runs)
  | Task.Yield ->
      t.Task.remaining <- 0;
      `Off
  | Task.Block ->
      if t.Task.wake_pending then begin
        t.Task.wake_pending <- false;
        advance smp t (fuel - 1)
      end
      else begin
        t.Task.state <- Task.Blocked;
        `Off
      end
  | Task.Sleep s ->
      t.Task.state <- Task.Blocked;
      ignore (Sim.schedule_after smp.sim s t.Task.on_wake);
      `Off
  | Task.Exit ->
      t.Task.state <- Task.Exited;
      `Off

let record_latency smp t =
  if t.Task.last_wake >= 0 then begin
    let lat = Time.to_us_f (Sim.now smp.sim - t.Task.last_wake) in
    if Trace.armed smp.latencies then
      Trace.record smp.latencies (t.Task.app, lat);
    Tm.observe smp.tm_wake_lat lat;
    t.Task.last_wake <- -1
  end

(* ------------------------------------------------------------------ *)
(* Dispatch                                                             *)

let rec schedule_work smp core t =
  cancel_work smp core;
  let span = max 0 t.Task.remaining in
  smp.work_events.(core) <- Sim.schedule_after smp.sim span smp.work_fire.(core)

and work_fired smp core =
  smp.work_events.(core) <- Sim.none;
  update_curr smp core;
  let t = running_task_of (Cfs.curr smp.rqs.(core)) in
  if t != Task.none && t.Task.remaining <= 0 then
    match advance smp t 10_000 with
    | `Runs -> schedule_work smp core t
    | `Off ->
        if t.Task.state = Task.Exited then reap smp t;
        resched smp core

and reap smp t =
  (* Remove an exited task from the roster and any group. *)
  smp.tasks <- List.filter (fun t' -> t'.Task.tid <> t.Task.tid) smp.tasks;
  let b = find_balloon smp t.Task.app in
  if b != no_balloon then
    Array.iter
      (fun e ->
        match e.Entity.kind with
        | Entity.EGroup g ->
            g.Entity.gtasks <-
              List.filter (fun t' -> t'.Task.tid <> t.Task.tid) g.Entity.gtasks
        | Entity.ETask _ -> ())
      b.b_entities
  else Hashtbl.remove smp.task_entities t.Task.tid

and start_task smp core t =
  t.Task.state <- Task.Running;
  t.Task.core <- core;
  record_latency smp t;
  Psbox_hw.Cpu.set_core_busy smp.cpu ~core true;
  set_span smp core t.Task.app;
  schedule_work smp core t

and run smp core next =
  do_run smp core next;
  (* every dispatch decision changes what the next interesting instant is *)
  replan smp core

and do_run smp core e =
  let rq = smp.rqs.(core) in
  if e == Entity.none then begin
    Psbox_hw.Cpu.set_core_busy smp.cpu ~core false;
    set_span smp core (-1)
  end
  else begin
    Cfs.dequeue rq e;
    Cfs.set_curr rq e;
    smp.curr_started.(core) <- Sim.now smp.sim;
    smp.dispatched.(core) <- Sim.now smp.sim;
    match e.Entity.kind with
    | Entity.ETask t -> start_task smp core t
    | Entity.EGroup g -> (
        let t = Entity.group_pick g in
        g.Entity.gcurr <- t;
        if t != Task.none then start_task smp core t
        else begin
          Psbox_hw.Cpu.set_core_busy smp.cpu ~core false;
          set_span smp core (-2);
          (* a balloon whose app has nothing runnable anywhere should
             not hold the machine idle until the next tick *)
          match smp.live with
          | Some b when not (Array.exists Entity.runnable b.b_entities) ->
              ignore (Sim.schedule_after smp.sim 0 b.b_idle_check)
          | _ -> ()
        end)
  end

and pick_next smp core =
  match smp.live with
  | Some b -> b.b_entities.(core)
  | None -> Cfs.leftmost smp.rqs.(core)

(* Idle-pull load balancing: an idling core steals a waiting task entity
   from a core that is already running something else. Balloon groups are
   never migrated (their cores are fixed by construction). Migration
   re-bases the vruntime on the destination queue, as CFS does. *)
and assigned_load smp core = count_assigned core 0 smp.tasks

and count_assigned core n = function
  | [] -> n
  | t :: rest ->
      let n =
        if t.Task.core = core && t.Task.state <> Task.Exited then n + 1 else n
      in
      count_assigned core n rest

and try_steal smp core =
  match smp.live with
  | Some _ -> Entity.none
  | None when smp.balloons <> [] ->
      (* while any app is sandboxed, migrations would scramble the per-core
         loan bookkeeping that keeps coscheduling fair *)
      Entity.none
  | None ->
      let found = ref Entity.none and from = ref 0 in
      let my_load = assigned_load smp core in
      for j = 0 to cores smp - 1 do
        if j <> core && !found == Entity.none then begin
          let rqj = smp.rqs.(j) in
          let victim_busy = Cfs.curr rqj != Entity.none in
          (* steal only when it moves the assigned-task counts toward
             balance — a core full of briefly-sleeping tasks is not idle
             capacity, and count drift would clump apps onto one core *)
          if victim_busy && assigned_load smp j >= my_load + 2 then
            for i = 0 to Cfs.n_queued rqj - 1 do
              let e = Cfs.nth rqj i in
              match e.Entity.kind with
              | Entity.ETask t when Task.is_runnable t && !found == Entity.none ->
                  found := e;
                  from := j
              | Entity.ETask _ | Entity.EGroup _ -> ()
            done
        end
      done;
      let e = !found in
      (match e.Entity.kind with
      | Entity.ETask t when e != Entity.none ->
          let rqj = smp.rqs.(!from) in
          Cfs.dequeue rqj e;
          t.Task.core <- core;
          e.Entity.vruntime.ns <-
            e.Entity.vruntime.ns -. Cfs.min_vruntime rqj
            +. Cfs.min_vruntime smp.rqs.(core);
          t.Task.vruntime.ns <- e.Entity.vruntime.ns
      | Entity.ETask _ | Entity.EGroup _ -> ());
      e

and resched smp core =
  update_curr smp core;
  put_prev smp core;
  let next = pick_next smp core in
  let next = if next == Entity.none then try_steal smp core else next in
  (match smp.live with
  | None when next != Entity.none && Entity.is_group next ->
      let b = find_balloon smp (Entity.app_of next) in
      if b != no_balloon then start_balloon smp core b
  | Some _ | None -> ());
  run smp core next

(* ------------------------------------------------------------------ *)
(* Spatial balloons                                                     *)

and start_balloon smp core b =
  b.b_live <- true;
  b.b_joined <- 1;
  b.b_metering <- false;
  Array.iter
    (fun e ->
      match e.Entity.kind with
      | Entity.EGroup g -> g.Entity.loan <- 0.0
      | Entity.ETask _ -> ())
    b.b_entities;
  smp.live <- Some b;
  if cores smp = 1 then begin
    b.b_started <- Sim.now smp.sim;
    b.b_metering <- true;
    b.b_on_start ();
    replan_balloon smp b
  end
  else
    for j = 0 to cores smp - 1 do
      if j <> core then
        ignore (Sim.schedule_after smp.sim smp.cfg.ipi_delay b.b_join.(j))
    done

and join_balloon smp b j =
  if b.b_live then begin
    update_curr smp j;
    put_prev smp j;
    let e = b.b_entities.(j) in
    (* initial loan: what E_j must borrow to beat the core's best runnable *)
    let best = Cfs.best_other smp.rqs.(j) e in
    (match e.Entity.kind with
    | Entity.EGroup g when best != Entity.none ->
        g.Entity.loan <-
          Float.max g.Entity.loan
            (Float.max 0.0 (e.Entity.vruntime.ns -. best.Entity.vruntime.ns))
    | Entity.EGroup _ | Entity.ETask _ -> ());
    run smp j e;
    b.b_joined <- b.b_joined + 1;
    if b.b_joined = cores smp then begin
      b.b_started <- Sim.now smp.sim;
      b.b_metering <- true;
      b.b_on_start ();
      replan_balloon smp b
    end
  end

and cosched_out smp ~local b =
  cancel_balloon_event smp;
  for i = 0 to cores smp - 1 do
    update_curr smp i
  done;
  (* settle every loan to its exact supremum before redistribution (the
     tick-driven scheduler sampled this at most a tick late) *)
  for i = 0 to cores smp - 1 do
    let e = b.b_entities.(i) in
    let best = Cfs.best_other smp.rqs.(i) e in
    match e.Entity.kind with
    | Entity.EGroup g when best != Entity.none ->
        g.Entity.loan <-
          Float.max g.Entity.loan
            (e.Entity.vruntime.ns -. best.Entity.vruntime.ns)
    | Entity.EGroup _ | Entity.ETask _ -> ()
  done;
  b.b_live <- false;
  smp.live <- None;
  if b.b_metering then begin
    b.b_metering <- false;
    if Trace.armed b.b_intervals then
      Trace.record b.b_intervals (b.b_started, Sim.now smp.sim);
    if Tt.recording () then
      Tt.span ~track:cfs_track ~lane:"balloon" ~name:(app_label b.b_app)
        ~start:b.b_started ~stop:(Sim.now smp.sim) ();
    b.b_on_stop ()
  end;
  (* loan redistribution: entities evenly split the period's total loan *)
  let total = ref 0.0 and groups = ref 0 in
  for i = 0 to Array.length b.b_entities - 1 do
    match b.b_entities.(i).Entity.kind with
    | Entity.EGroup g ->
        total := !total +. g.Entity.loan;
        incr groups
    | Entity.ETask _ -> ()
  done;
  let total = !total in
  b.b_total_loan <- b.b_total_loan +. total;
  let n = float_of_int !groups in
  for i = 0 to Array.length b.b_entities - 1 do
    let e = b.b_entities.(i) in
    match e.Entity.kind with
    | Entity.EGroup g ->
        if smp.cfg.confine_cost then
          e.Entity.vruntime.ns <-
            e.Entity.vruntime.ns +. ((total /. n) -. g.Entity.loan);
        g.Entity.loan <- 0.0
    | Entity.ETask _ -> ()
  done;
  (* schedule out everywhere: local core now, remote cores after the IPI *)
  resched smp local;
  for j = 0 to cores smp - 1 do
    if j <> local then
      ignore (Sim.schedule_after smp.sim smp.cfg.ipi_delay smp.resched_fire.(j))
  done

(* Balloon bookkeeping on the designated tick: loan growth and the
   schedule-out condition ("none of {E} has the best credit"). *)
and balloon_tick smp ~local b =
  let n = cores smp in
  let wins = ref 0 in
  for i = 0 to n - 1 do
    let e = b.b_entities.(i) in
    let best = Cfs.best_other smp.rqs.(i) e in
    if best == Entity.none then incr wins
    else if e.Entity.vruntime.ns <= best.Entity.vruntime.ns then incr wins
    else begin
      match e.Entity.kind with
      | Entity.EGroup g ->
          g.Entity.loan <-
            Float.max g.Entity.loan
              (e.Entity.vruntime.ns -. best.Entity.vruntime.ns)
      | Entity.ETask _ -> ()
    end
  done;
  let any_runnable = Array.exists Entity.runnable b.b_entities in
  let loan_capped = ref false in
  for i = 0 to n - 1 do
    match b.b_entities.(i).Entity.kind with
    | Entity.EGroup g ->
        if g.Entity.loan > smp.cfg.max_loan then loan_capped := true
    | Entity.ETask _ -> ()
  done;
  let loan_capped = !loan_capped in
  let over_period = Sim.now smp.sim - b.b_started > smp.cfg.max_period in
  if !wins = 0 || loan_capped || over_period || not any_runnable then
    cosched_out smp ~local b

(* Rotate the inner task of a balloon group when a sibling has less
   vruntime, or start one if the core sits idle with runnable members. *)
and inner_rotate smp core =
  match (Cfs.curr smp.rqs.(core)).Entity.kind with
  | Entity.EGroup g ->
      let best = Entity.group_pick g and curr_t = g.Entity.gcurr in
      if
        best != Task.none
        && (curr_t == Task.none || best.Task.tid <> curr_t.Task.tid)
      then resched smp core
  | Entity.ETask _ -> ()

(* ------------------------------------------------------------------ *)
(* Demand wakeups (replacing the periodic tick)

   Instead of polling every core every tick, the scheduler computes the
   next instant at which a tick would have acted — a waiter's vruntime
   undercutting the runner's, a balloon boundary, an idle pickup — and
   schedules exactly one event there. Every fire handler re-derives the
   decision from live state before acting (verify-and-re-arm), so a plan
   built from slightly stale projections is never wrong, only re-aimed. *)

and replan smp core =
  match smp.live with
  | Some b when b.b_live ->
      replan_rotate smp core;
      replan_balloon smp b
  | Some _ | None -> replan_core smp core

and replan_core smp core =
  cancel_plan smp core;
  if not smp.stopped then begin
    let rq = smp.rqs.(core) in
    let now = Sim.now smp.sim in
    let c = Cfs.curr rq and l = Cfs.leftmost rq in
    if l == Entity.none then ()
    else if c == Entity.none then
      (* idle core with queued work: pick it up this instant (the
         polling scheduler waited for the next tick) *)
      smp.plan_events.(core) <- Sim.schedule_at smp.sim now smp.plan_fire.(core)
    else begin
        (* the instant the waiter's static vruntime undercuts the runner's
           growing one, floored by one tick as the minimum quantum. The
           preemption test is strict, so a tie must re-check >= 1 ns later
           (same-instant re-arms would loop), and a non-charging runner
           (confined group sitting idle) never crosses at all — chain at
           the horizon instead. *)
        let v = curr_vruntime_now smp core c in
        let dv = l.Entity.vruntime.ns -. v in
        let charging =
          match c.Entity.kind with
          | Entity.EGroup g -> smp.cfg.confine_cost || g.Entity.gcurr != Task.none
          | Entity.ETask _ -> true
        in
        let at =
          if dv < 0.0 then now
          else if not charging then now + plan_horizon
          else now + max 1 (ns_until_dv ~weight:c.Entity.weight dv)
        in
        let at = max at (smp.dispatched.(core) + smp.cfg.tick) in
        smp.plan_events.(core) <- Sim.schedule_at smp.sim at smp.plan_fire.(core)
    end
  end

(* Next inner-rotation instant of a live balloon's group on [core]: the
   earliest crossing between the inner runner's growing vruntime and a
   runnable sibling's static one, floored by one tick. *)
and replan_rotate smp core =
  cancel_plan smp core;
  if not smp.stopped then begin
    match (Cfs.curr smp.rqs.(core)).Entity.kind with
    | Entity.EGroup g ->
        let now = Sim.now smp.sim in
        let t = g.Entity.gcurr in
        if t == Task.none then begin
          if Entity.group_pick g != Task.none then
            smp.plan_events.(core) <-
              Sim.schedule_at smp.sim now smp.plan_fire.(core)
        end
        else begin
          let delta = now - smp.curr_started.(core) in
          let v =
            if delta <= 0 then t.Task.vruntime.ns
            else
              t.Task.vruntime.ns
              +. (float_of_int delta *. Cfs.nice0_weight /. t.Task.weight)
          in
          let next = earliest_crossing t v now max_int g.Entity.gtasks in
          if next <> max_int then begin
            let at = max next (smp.dispatched.(core) + smp.cfg.tick) in
            smp.plan_events.(core) <-
              Sim.schedule_at smp.sim at smp.plan_fire.(core)
          end
        end
    | Entity.ETask _ -> ()
  end

and plan_fired smp core =
  smp.plan_events.(core) <- Sim.none;
  if not smp.stopped then begin
    update_curr smp core;
    match smp.live with
    | Some b when b.b_live ->
        Tm.incr smp.tm_ev_rotate;
        inner_rotate smp core;
        (* inner_rotate re-plans through resched/run if it acted *)
        if Sim.is_none smp.plan_events.(core) then replan smp core
    | Some _ | None -> (
        Tm.incr smp.tm_ev_preempt;
        let rq = smp.rqs.(core) in
        let c = Cfs.curr rq and l = Cfs.leftmost rq in
        if
          l != Entity.none
          && (c == Entity.none
             || l.Entity.vruntime.ns < c.Entity.vruntime.ns)
        then resched smp core
        else replan_core smp core)
  end

(* One machine-wide wakeup at the live balloon's next boundary:
   min over (max_period expiry; the earliest loan-cap crossing on any
   core; the latest instant at which the balloon still wins some core's
   credit race — after it, wins = 0). All three are exact projections of
   the conditions [balloon_tick] checks; the fire handler re-evaluates
   them on materialised accounting. *)
and replan_balloon smp b =
  cancel_balloon_event smp;
  if (not smp.stopped) && b.b_live && b.b_metering then begin
    let now = Sim.now smp.sim in
    let at = ref (b.b_started + smp.cfg.max_period + 1) in
    (* running max of per-core win-loss instants, unless some core has no
       waiter, so wins can never reach zero *)
    let lose_all = ref now and can_lose = ref true in
    for i = 0 to cores smp - 1 do
      let e = b.b_entities.(i) in
      let rq = smp.rqs.(i) in
      let best = Cfs.best_other rq e in
      let charging =
        curr_is rq e
        &&
        match e.Entity.kind with
        | Entity.EGroup g -> smp.cfg.confine_cost || g.Entity.gcurr != Task.none
        | Entity.ETask _ -> true
      in
      let v =
        if curr_is rq e then curr_vruntime_now smp i e else e.Entity.vruntime.ns
      in
      if best == Entity.none then can_lose := false
      else begin
        let dv = best.Entity.vruntime.ns -. v in
        let t_lose =
          if dv < 0.0 then now
          else if charging then
            now + max 1 (ns_until_dv ~weight:e.Entity.weight dv)
          else now + plan_horizon
        in
        if !can_lose then lose_all := max !lose_all t_lose;
        match e.Entity.kind with
        | Entity.EGroup g ->
            if g.Entity.loan > smp.cfg.max_loan then at := min !at now
            else if charging then begin
              let dv_cap = smp.cfg.max_loan +. best.Entity.vruntime.ns -. v in
              at :=
                min !at
                  (now + max 1 (ns_until_dv ~weight:e.Entity.weight dv_cap))
            end
        | Entity.ETask _ -> ()
      end
    done;
    if !can_lose then at := min !at (max !lose_all now);
    let at = min !at (now + plan_horizon) in
    smp.balloon_event <- Sim.schedule_at smp.sim (max at now) smp.balloon_fire
  end

and balloon_fired smp =
  smp.balloon_event <- Sim.none;
  if not smp.stopped then
    match smp.live with
    | Some b when b.b_live ->
        Tm.incr smp.tm_ev_balloon;
        for i = 0 to cores smp - 1 do
          update_curr smp i
        done;
        (* If this boundary schedules the balloon out, the [local] core
           rescheds this instant and the rest after the IPI — so hand
           "local" to the core whose waiting competitor has the best
           claim. (The tick-driven scheduler got an equivalent rotation
           for free from its staggered per-core ticks; without this,
           core 0 would always repick first and could restart the same
           balloon forever, starving a competing sandbox.) *)
        let local = ref 0 and best_v = ref infinity in
        for i = 0 to cores smp - 1 do
          let w = Cfs.best_other smp.rqs.(i) b.b_entities.(i) in
          if w != Entity.none && w.Entity.vruntime.ns < !best_v then begin
            best_v := w.Entity.vruntime.ns;
            local := i
          end
        done;
        balloon_tick smp ~local:!local b;
        if b.b_live then replan_balloon smp b
    | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Quota enforcement                                                    *)

(* Take an over-quota app off the CPUs: queued entities are removed, cores
   running it reschedule (put_prev's throttle guard keeps them off the
   queue). Sandboxed apps are exempt (see [entity_throttled]). *)
let throttle smp app q =
  Sim.cancel smp.sim q.q_event;
  q.q_event <- Sim.none;
  q.q_throttled <- true;
  Tm.incr smp.tm_throttles;
  if Tt.recording () then
    Tt.instant ~track:cfs_track ~lane:"quota"
      ~name:("throttle " ^ app_label app)
      (Sim.now smp.sim);
  for core = 0 to cores smp - 1 do
    let rq = smp.rqs.(core) in
    (* from the back, so a dequeue shifts only entities already seen *)
    for i = Cfs.n_queued rq - 1 downto 0 do
      let e = Cfs.nth rq i in
      match e.Entity.kind with
      | Entity.ETask t when t.Task.app = app -> Cfs.dequeue rq e
      | Entity.ETask _ | Entity.EGroup _ -> ()
    done
  done;
  for core = 0 to cores smp - 1 do
    if runs_app smp core app then resched smp core
  done

(* ------------------------------------------------------------------ *)
(* Start / stop                                                         *)

let start smp =
  (* no periodic ticks: each core's resched ends in a demand re-plan *)
  for core = 0 to cores smp - 1 do
    resched smp core
  done

let stop smp =
  let was_stopped = smp.stopped in
  smp.stopped <- true;
  Array.iter (fun h -> Sim.cancel smp.sim h) smp.plan_events;
  Array.iter (fun h -> Sim.cancel smp.sim h) smp.work_events;
  cancel_balloon_event smp;
  Hashtbl.iter
    (fun _ q ->
      Sim.cancel smp.sim q.q_event;
      q.q_event <- Sim.none)
    smp.quotas;
  Sim.cancel smp.sim smp.quota_next;
  smp.quota_next <- Sim.none;
  (match smp.live with Some b -> cosched_out smp ~local:0 b | None -> ());
  (* close every core's open span in the history *)
  if Trace.armed smp.trace && not was_stopped then begin
    let now = Sim.now smp.sim in
    Array.iteri
      (fun core tag ->
        if tag <> no_span then
          Trace.record smp.trace
            { Trace.start = smp.span_start.(core); stop = now; tag = (core, tag) })
      smp.span_tag
  end

(* ------------------------------------------------------------------ *)
(* Wakeups and spawning                                                 *)

let preempt_check smp core e =
  match smp.live with
  | Some b when b.b_live ->
      (* the enqueue changed some core's best waiter: re-aim the balloon
         boundary at the new credit-race geometry *)
      replan_balloon smp b
  | Some _ -> ()
  | None -> (
      let c = Cfs.curr smp.rqs.(core) in
      if c == Entity.none then resched smp core
      else if
        e.Entity.vruntime.ns +. smp.cfg.wakeup_granularity < c.Entity.vruntime.ns
      then resched smp core
      else
        (* no immediate preemption; the crossing with the new waiter
           still needs a planned wakeup *)
        replan_core smp core)

let wake smp t =
  match t.Task.state with
  | Task.Blocked -> (
      t.Task.state <- Task.Runnable;
      t.Task.last_wake <- Sim.now smp.sim;
      let core = t.Task.core in
      let rq = smp.rqs.(core) in
      let b = find_balloon smp t.Task.app in
      if b != no_balloon then begin
        let e = b.b_entities.(core) in
        match smp.live with
        | Some b' when b' == b ->
            (* already forced in; make sure the core picks the waker up,
               or re-aim the rotation plan at the new runnable member *)
            if curr_is rq e then (
              match e.Entity.kind with
              | Entity.EGroup g ->
                  if g.Entity.gcurr == Task.none then resched smp core
                  else replan smp core
              | Entity.ETask _ -> ())
        | _ ->
            if (not e.Entity.on_rq) && not (curr_is rq e) then begin
              Cfs.place_woken rq e;
              Cfs.enqueue rq e
            end;
            preempt_check smp core e
      end
      else
          let e = Hashtbl.find smp.task_entities t.Task.tid in
          if throttled_app smp t.Task.app then
            (* stays runnable but off the queue; the next quota refill
               enqueues it *)
            ()
          else begin
            if (not e.Entity.on_rq) && not (curr_is rq e) then begin
              Cfs.place_woken rq e;
              t.Task.vruntime.ns <- e.Entity.vruntime.ns;
              Cfs.enqueue rq e
            end;
            preempt_check smp core e
          end)
  | Task.Running | Task.Runnable -> t.Task.wake_pending <- true
  | Task.Exited -> ()

let spawn smp t =
  smp.tasks <- t :: smp.tasks;
  t.Task.on_wake <- (fun () -> wake smp t);
  t.Task.last_wake <- Sim.now smp.sim;
  let core = t.Task.core in
  let rq = smp.rqs.(core) in
  let b = find_balloon smp t.Task.app in
  if b != no_balloon then begin
    let e = b.b_entities.(core) in
    (match e.Entity.kind with
    | Entity.EGroup g -> g.Entity.gtasks <- t :: g.Entity.gtasks
    | Entity.ETask _ -> ());
    match smp.live with
    | Some b' when b' == b -> (
        match e.Entity.kind with
        | Entity.EGroup g ->
            if g.Entity.gcurr == Task.none then resched smp core
            else replan smp core
        | Entity.ETask _ -> ())
    | _ ->
        if (not e.Entity.on_rq) && not (curr_is rq e) then begin
          Cfs.place_woken rq e;
          Cfs.enqueue rq e
        end;
        preempt_check smp core e
  end
  else
      let e = Entity.of_task t in
      Hashtbl.replace smp.task_entities t.Task.tid e;
      Cfs.place_new rq e;
      t.Task.vruntime.ns <- e.Entity.vruntime.ns;
      if not (throttled_app smp t.Task.app) then begin
        Cfs.enqueue rq e;
        preempt_check smp core e
      end

(* ------------------------------------------------------------------ *)
(* Quota API                                                            *)

(* Put [app]'s runnable tasks among [tasks] back on their queues. *)
let rec requeue_app smp app = function
  | [] -> ()
  | t :: rest ->
      (if t.Task.app = app && Task.is_runnable t then
         match Hashtbl.find smp.task_entities t.Task.tid with
         | e ->
             let rq = smp.rqs.(t.Task.core) in
             if (not e.Entity.on_rq) && not (curr_is rq e) then begin
               Cfs.place_woken rq e;
               t.Task.vruntime.ns <- e.Entity.vruntime.ns;
               Cfs.enqueue rq e;
               preempt_check smp t.Task.core e
             end
         | exception Not_found -> ());
      requeue_app smp app rest

let unthrottle smp app q =
  q.q_throttled <- false;
  Tm.incr smp.tm_unthrottles;
  if Tt.recording () then
    Tt.instant ~track:cfs_track ~lane:"quota"
      ~name:("unthrottle " ^ app_label app)
      (Sim.now smp.sim);
  requeue_app smp app smp.tasks

(* The budgeted apps are visited in the order of [quota_order], which is
   the [quotas] table's own iteration order. *)
let quota_refill smp =
  if not smp.stopped then
    for i = 0 to smp.quota_order.Share_table.n - 1 do
      let app = smp.quota_order.Share_table.apps.(i) in
      let q = Hashtbl.find smp.quotas app in
      q.q_used <- 0;
      if q.q_throttled then unthrottle smp app q
    done

(* The app's quota drains at [running-core-count] core-ns per ns, so the
   projected balance pins the enforcement instant exactly; consumed time
   still inside the cores' accounting windows is folded into the
   projection without materialising it. *)
let quota_used_now smp app q =
  let now = Sim.now smp.sim in
  let extra = ref 0 in
  for core = 0 to cores smp - 1 do
    if runs_app smp core app then extra := !extra + (now - smp.curr_started.(core))
  done;
  q.q_used + !extra

let rec replan_quota smp app =
  match Hashtbl.find smp.quotas app with
  | exception Not_found -> ()
  | q ->
      Sim.cancel smp.sim q.q_event;
      q.q_event <- Sim.none;
      if
        (not smp.stopped) && (not q.q_throttled)
        && find_balloon smp app == no_balloon
      then begin
        let ncores = shares_of smp app in
        if ncores > 0 then begin
          let limit_ns = q.q_limit *. float_of_int smp.cfg.quota_period in
          let used_ns = float_of_int (quota_used_now smp app q) in
          let dt =
            if used_ns >= limit_ns then 1
            else begin
              let d = (limit_ns -. used_ns) /. float_of_int ncores in
              if Float.is_finite d && d < float_of_int plan_horizon then
                int_of_float d + 1
              else plan_horizon
            end
          in
          q.q_event <- Sim.schedule_after smp.sim dt q.q_fire
        end
      end

and quota_fired smp app =
  match Hashtbl.find smp.quotas app with
  | exception Not_found -> ()
  | q ->
      q.q_event <- Sim.none;
      if not smp.stopped then begin
        Tm.incr smp.tm_ev_quota;
        for core = 0 to cores smp - 1 do
          if runs_app smp core app then update_curr smp core
        done;
        let in_balloon =
          match smp.live with Some _ -> true | None -> false
        in
        (* [Time.to_sec_f], spelled out so the floats are not boxed *)
        if
          (not in_balloon) && (not q.q_throttled)
          && find_balloon smp app == no_balloon
          && shares_of smp app > 0
          && float_of_int q.q_used /. 1e9
             >= q.q_limit *. (float_of_int smp.cfg.quota_period /. 1e9)
        then throttle smp app q
        else replan_quota smp app
      end

(* Refill boundaries stay on the epoch grid the first quota pinned, but a
   boundary is only armed while some budgeted app is consuming (or
   throttled); skipped boundaries are exact no-ops — every balance is
   already zero and nothing is waiting. *)
let rec arm_refill smp =
  match smp.quota_epoch with
  | Some epoch when Sim.is_none smp.quota_next && not smp.stopped ->
      let period = smp.cfg.quota_period in
      let k = ((Sim.now smp.sim - epoch) / period) + 1 in
      smp.quota_next <- Sim.schedule_at smp.sim (epoch + (k * period)) smp.refill_fire
  | _ -> ()

and refill_fired smp =
  smp.quota_next <- Sim.none;
  if not smp.stopped then begin
    Tm.incr smp.tm_ev_refill;
    quota_refill smp;
    let active = ref false in
    for i = 0 to smp.quota_order.Share_table.n - 1 do
      let app = smp.quota_order.Share_table.apps.(i) in
      replan_quota smp app;
      if shares_of smp app > 0 then active := true
    done;
    if !active then arm_refill smp
  end

(* The grid starts lazily with the first quota, so an unbudgeted machine
   schedules exactly the same events as before this feature. *)
let ensure_quota_tick smp =
  (match smp.quota_epoch with
  | Some _ -> ()
  | None -> smp.quota_epoch <- Some (Sim.now smp.sim));
  arm_refill smp

let () =
  quota_share_hook :=
    fun smp app ->
      replan_quota smp app;
      arm_refill smp

let create sim cpu ?(config = default_config) () =
  let n = Psbox_hw.Cpu.cores cpu in
  let smp =
    {
      sim;
      cpu;
      cfg = config;
      rqs = Array.init n (fun core -> Cfs.create ~core);
      curr_started = Array.make n Time.zero;
      dispatched = Array.make n Time.zero;
      work_events = Array.make n Sim.none;
      plan_events = Array.make n Sim.none;
      balloon_event = Sim.none;
      work_fire = Array.make n ignore;
      plan_fire = Array.make n ignore;
      resched_fire = Array.make n ignore;
      balloon_fire = ignore;
      refill_fire = ignore;
      span_tag = Array.make n no_span;
      span_start = Array.make n Time.zero;
      task_entities = Hashtbl.create 64;
      tasks = [];
      balloons = [];
      live = None;
      trace = Trace.create ~reader:"Smp.sched_trace" ~arm_with;
      latencies = Trace.create ~reader:"Smp wakeup latencies" ~arm_with;
      stopped = false;
      share_bus = Bus.create ();
      share_change = { Share_table.at = Time.zero; app = 0; share = 0.0 };
      share_counts = Hashtbl.create 16;
      quotas = Hashtbl.create 8;
      quota_order = Share_table.create ();
      quota_epoch = None;
      quota_next = Sim.none;
      tm_switch = Tm.counter "smp.ctx_switches";
      tm_core_switch =
        Array.init n (fun core ->
            Tm.counter (Printf.sprintf "smp.core%d.ctx_switches" core));
      tm_throttles = Tm.counter "smp.throttles";
      tm_unthrottles = Tm.counter "smp.unthrottles";
      tm_wake_lat =
        Tm.histogram "smp.wakeup_latency_us"
          ~edges:[| 1.; 10.; 100.; 1_000.; 10_000. |];
      tm_lanes = Array.init n (Printf.sprintf "core%d");
      tm_ev_preempt = Tm.counter "sim.events.smp.preempt";
      tm_ev_rotate = Tm.counter "sim.events.smp.rotate";
      tm_ev_balloon = Tm.counter "sim.events.smp.balloon_boundary";
      tm_ev_quota = Tm.counter "sim.events.smp.quota_enforce";
      tm_ev_refill = Tm.counter "sim.events.smp.quota_refill";
    }
  in
  for core = 0 to n - 1 do
    smp.work_fire.(core) <- (fun () -> work_fired smp core);
    smp.plan_fire.(core) <- (fun () -> plan_fired smp core);
    smp.resched_fire.(core) <- (fun () -> resched smp core)
  done;
  smp.balloon_fire <- (fun () -> balloon_fired smp);
  smp.refill_fire <- (fun () -> refill_fired smp);
  smp

let set_quota smp ~app limit =
  match limit with
  | None -> (
      match Hashtbl.find_opt smp.quotas app with
      | Some q ->
          Sim.cancel smp.sim q.q_event;
          q.q_event <- Sim.none;
          if q.q_throttled then unthrottle smp app q;
          Hashtbl.remove smp.quotas app;
          Share_table.remove smp.quota_order ~app
      | None -> ())
  | Some l ->
      let l = Float.max 0.0 l in
      (match Hashtbl.find_opt smp.quotas app with
      | Some q -> q.q_limit <- l
      | None ->
          let q =
            {
              q_limit = l;
              q_used = 0;
              q_throttled = false;
              q_event = Sim.none;
              q_fire = ignore;
            }
          in
          q.q_fire <- (fun () -> quota_fired smp app);
          Hashtbl.replace smp.quotas app q;
          Share_table.set smp.quota_order ~app 1.0);
      ensure_quota_tick smp;
      replan_quota smp app

let quota smp ~app =
  match Hashtbl.find_opt smp.quotas app with
  | Some q -> Some q.q_limit
  | None -> None

(* ------------------------------------------------------------------ *)
(* Sandbox / unsandbox                                                  *)

let sandbox smp ~app =
  if find_balloon smp app != no_balloon then
    invalid_arg "Smp.sandbox: app already sandboxed";
  let n = cores smp in
  let entities = Array.init n (fun core -> Entity.group ~psbox_id:app ~core ()) in
  let b =
    {
      b_app = app;
      b_entities = entities;
      b_live = false;
      b_started = Time.zero;
      b_joined = 0;
      b_metering = false;
      b_intervals =
        (let log = Trace.create ~reader:"Smp.balloon_intervals" ~arm_with in
         if Trace.armed smp.trace then Trace.arm log;
         log);
      b_on_start = (fun () -> ());
      b_on_stop = (fun () -> ());
      b_total_loan = 0.0;
      b_join = [||];
      b_idle_check = ignore;
    }
  in
  b.b_join <- Array.init n (fun j () -> join_balloon smp b j);
  b.b_idle_check <-
    (fun () ->
      if b.b_live && not (Array.exists Entity.runnable b.b_entities) then
        cosched_out smp ~local:0 b);
  let tasks = app_tasks smp ~app in
  (* pull tasks out of normal scheduling *)
  let touched_cores = ref [] in
  List.iter
    (fun t ->
      let core = t.Task.core in
      (match Hashtbl.find_opt smp.task_entities t.Task.tid with
      | Some e ->
          let rq = smp.rqs.(core) in
          if curr_is rq e then begin
            (* detach the running task's old entity so it cannot be
               requeued alongside the new group entity *)
            touched_cores := core :: !touched_cores;
            cancel_work smp core;
            if t.Task.state = Task.Running then t.Task.state <- Task.Runnable;
            Cfs.set_curr rq Entity.none;
            Psbox_hw.Cpu.set_core_busy smp.cpu ~core false;
            set_span smp core no_span
          end
          else Cfs.dequeue rq e;
          Hashtbl.remove smp.task_entities t.Task.tid
      | None -> ());
      match entities.(core).Entity.kind with
      | Entity.EGroup g -> g.Entity.gtasks <- t :: g.Entity.gtasks
      | Entity.ETask _ -> ())
    tasks;
  smp.balloons <- b :: smp.balloons;
  (* fair starting credit: at least the core's min_vruntime, at least the
     average credit of the enclosed tasks *)
  Array.iteri
    (fun core e ->
      let rq = smp.rqs.(core) in
      (match e.Entity.kind with
      | Entity.EGroup g ->
          let ts = g.Entity.gtasks in
          let avg =
            match ts with
            | [] -> 0.0
            | _ ->
                List.fold_left (fun a t -> a +. t.Task.vruntime.ns) 0.0 ts
                /. float_of_int (List.length ts)
          in
          e.Entity.vruntime.ns <- Float.max avg (Cfs.min_vruntime rq)
      | Entity.ETask _ -> ());
      if Entity.runnable e then Cfs.enqueue rq e)
    entities;
  (* cores whose curr was one of the app's tasks must reschedule *)
  List.iter (fun core -> resched smp core) (List.sort_uniq compare !touched_cores);
  (* the group entities just enqueued change every core's next crossing *)
  for core = 0 to cores smp - 1 do
    replan smp core
  done;
  b

let unsandbox smp b =
  if b.b_live then cosched_out smp ~local:0 b;
  smp.balloons <- List.filter (fun b' -> not (b' == b)) smp.balloons;
  let touched = ref [] in
  Array.iteri
    (fun core e ->
      let rq = smp.rqs.(core) in
      if curr_is rq e then begin
        touched := core :: !touched;
        (* detach without requeueing the group *)
        let t = running_task_of e in
        if t != Task.none && t.Task.state = Task.Running then
          t.Task.state <- Task.Runnable;
        (match e.Entity.kind with
        | Entity.EGroup g -> g.Entity.gcurr <- Task.none
        | Entity.ETask _ -> ());
        cancel_work smp core;
        Cfs.set_curr rq Entity.none;
        Psbox_hw.Cpu.set_core_busy smp.cpu ~core false;
        set_span smp core no_span
      end
      else Cfs.dequeue rq e;
      match e.Entity.kind with
      | Entity.EGroup g ->
          List.iter
            (fun t ->
              let te = Entity.of_task t in
              te.Entity.vruntime.ns <- t.Task.vruntime.ns;
              Hashtbl.replace smp.task_entities t.Task.tid te;
              if Task.is_runnable t then begin
                Cfs.place_woken rq te;
                t.Task.vruntime.ns <- te.Entity.vruntime.ns;
                Cfs.enqueue rq te
              end)
            g.Entity.gtasks;
          g.Entity.gtasks <- []
      | Entity.ETask _ -> ())
    b.b_entities;
  List.iter (fun core -> resched smp core) (List.sort_uniq compare !touched);
  for core = 0 to cores smp - 1 do
    replan smp core
  done

let set_balloon_listener b ~on_start ~on_stop =
  b.b_on_start <- on_start;
  b.b_on_stop <- on_stop

let balloon_intervals b = Trace.to_list b.b_intervals

(* Balloons created later are armed at [sandbox], keyed off [smp.trace]. *)
let record_history smp =
  Trace.arm smp.trace;
  Trace.arm smp.latencies;
  List.iter (fun b -> Trace.arm b.b_intervals) smp.balloons

let balloon_live b = b.b_live
let total_loan_issued b = b.b_total_loan
