open Psbox_engine

type command = {
  id : int;
  app : int;
  kind : string;
  work_s : float;
  units : int;
  intensity : float;
  mutable submitted_at : Time.t;
  mutable started_at : Time.t option;
  mutable finished_at : Time.t option;
}

(* Domain-local, like Task and Entity ids, so concurrent device
   simulations number their commands without racing on a shared counter. *)
let next_cmd_id = Domain.DLS.new_key (fun () -> ref 0)

let command ~app ~kind ~work_s ?(units = 1) ?(intensity = 1.0) () =
  let next = Domain.DLS.get next_cmd_id in
  incr next;
  {
    id = !next;
    app;
    kind;
    work_s;
    units;
    intensity;
    submitted_at = Time.zero;
    started_at = None;
    finished_at = None;
  }

type running = {
  cmd : command;
  mutable remaining_s : float; (* device-seconds at the highest OPP *)
  mutable last_update : Time.t;
  mutable completion : Sim.handle;
  mutable fire : unit -> unit; (* completes it; built once, reused by re-times *)
}

type t = {
  sim : Sim.t;
  name : string;
  units : int;
  rail : Power_rail.t;
  activity : unit Bus.t; (* published on each idle-to-busy edge *)
  mutable dvfs : Dvfs.t option;
  mutable factor : float; (* cached speed factor of the current OPP *)
  mutable waiting : command list; (* FIFO, head = oldest *)
  mutable running : running list;
  mutable per_app : int array; (* commands in flight, by app id *)
  mutable on_complete : command -> unit;
  mutable busy_accum : Time.span;
  mutable busy_units_now : int;
  mutable busy_mark : Time.t;
  mutable active_accum : Time.span; (* time with any unit busy *)
  mutable active_since : Time.t;
  suspend_w : float;
  autosuspend : Time.span option;
  resume_delay : Time.span;
  mutable suspended : bool;
  mutable resuming : bool;
  mutable suspend_timer : Sim.handle;
  (* cumulative suspended residency (for counter-driven power models) *)
  mutable suspended_accum : Time.span;
  mutable suspended_since : Time.t;
  mutable util_mark : Time.t;
  mutable util_mark_accum : Time.span;
}

let default_opps =
  [|
    { Dvfs.freq_mhz = 200; core_w = 0.10; uncore_w = 0.05 };
    { Dvfs.freq_mhz = 300; core_w = 0.18; uncore_w = 0.08 };
    { Dvfs.freq_mhz = 400; core_w = 0.28; uncore_w = 0.12 };
    { Dvfs.freq_mhz = 532; core_w = 0.40; uncore_w = 0.18 };
  |]

let dvfs_exn dev = match dev.dvfs with Some d -> d | None -> assert false

let compute_factor dvfs =
  let top = (Dvfs.opps dvfs).(Dvfs.max_index dvfs).Dvfs.freq_mhz in
  float_of_int (Dvfs.current dvfs).Dvfs.freq_mhz /. float_of_int top

let accumulate_busy dev =
  let now = Sim.now dev.sim in
  dev.busy_accum <- dev.busy_accum + ((now - dev.busy_mark) * dev.busy_units_now);
  if dev.busy_units_now > 0 then
    dev.active_accum <- dev.active_accum + (now - dev.active_since);
  dev.active_since <- now;
  dev.busy_mark <- now

let update_power dev =
  let opp = Dvfs.current (dvfs_exn dev) in
  let w =
    if dev.suspended then dev.suspend_w
    else begin
      let active = ref 0.0 and rs = ref dev.running in
      while !rs != [] do
        match !rs with
        | r :: rest ->
            active :=
              !active
              +. (float_of_int r.cmd.units *. r.cmd.intensity *. opp.Dvfs.core_w);
            rs := rest
        | [] -> ()
      done;
      let active = !active in
      Power_rail.idle_w dev.rail
      +. (if dev.running <> [] then opp.Dvfs.uncore_w else 0.0)
      +. active
    end
  in
  Power_rail.set_power dev.rail w

(* Bring a running command's remaining work up to date at the cached speed
   factor, without rescheduling. *)
let sync_progress dev r =
  let now = Sim.now dev.sim in
  let elapsed = float_of_int (now - r.last_update) /. 1e9 in
  r.remaining_s <- Float.max 0.0 (r.remaining_s -. (elapsed *. dev.factor));
  r.last_update <- now

let rec sync_all dev = function
  | [] -> ()
  | r :: rest ->
      sync_progress dev r;
      sync_all dev rest

(* [running] without the command [id], its order kept. *)
let rec without id = function
  | [] -> []
  | r :: rest -> if r.cmd.id = id then rest else r :: without id rest

let count dev app delta =
  if app >= Array.length dev.per_app then begin
    let a = Array.make (max (app + 1) (2 * Array.length dev.per_app)) 0 in
    Array.blit dev.per_app 0 a 0 (Array.length dev.per_app);
    dev.per_app <- a
  end;
  dev.per_app.(app) <- dev.per_app.(app) + delta

let rec complete dev r =
  let now = Sim.now dev.sim in
  accumulate_busy dev;
  dev.running <- without r.cmd.id dev.running;
  count dev r.cmd.app (-1);
  dev.busy_units_now <- dev.busy_units_now - r.cmd.units;
  r.cmd.finished_at <- Some now;
  update_power dev;
  start_waiting dev;
  if dev.running = [] && dev.waiting = [] then arm_autosuspend dev;
  dev.on_complete r.cmd

and schedule_completion dev r =
  Sim.cancel dev.sim r.completion;
  (* [Time.of_sec_f], spelled out so the float is not boxed *)
  let duration = int_of_float (Float.round (r.remaining_s /. dev.factor *. 1e9)) in
  r.completion <- Sim.schedule_after dev.sim (max 1 duration) r.fire

and schedule_all dev = function
  | [] -> ()
  | r :: rest ->
      schedule_completion dev r;
      schedule_all dev rest

and start_cmd dev cmd =
  let now = Sim.now dev.sim in
  accumulate_busy dev;
  cmd.started_at <- Some now;
  let was_idle = dev.busy_units_now = 0 in
  dev.busy_units_now <- dev.busy_units_now + cmd.units;
  let r =
    {
      cmd;
      remaining_s = cmd.work_s;
      last_update = now;
      completion = Sim.none;
      fire = ignore;
    }
  in
  r.fire <- (fun () -> complete dev r);
  schedule_completion dev r;
  dev.running <- r :: dev.running;
  update_power dev;
  if was_idle then Bus.publish dev.activity ()

and start_waiting dev =
  if not dev.suspended && not dev.resuming then
    match dev.waiting with
    | cmd :: rest when dev.busy_units_now + cmd.units <= dev.units ->
        dev.waiting <- rest;
        start_cmd dev cmd;
        start_waiting dev
    | _ -> ()

and arm_autosuspend dev =
  match dev.autosuspend with
  | None -> ()
  | Some span ->
      Sim.cancel dev.sim dev.suspend_timer;
      dev.suspend_timer <-
        Sim.schedule_after dev.sim span (fun () ->
            if dev.running = [] && dev.waiting = [] then begin
              dev.suspended <- true;
              dev.suspended_since <- Sim.now dev.sim;
              update_power dev
            end)

let create sim ?retention ~name ~units ?(opps = default_opps)
    ?(governor = Dvfs.Ondemand { up_threshold = 0.6; sampling = Time.ms 20 })
    ?(idle_w = 0.1) ?(suspend_w = 0.01) ?autosuspend
    ?(resume_delay = Time.ms 5) () =
  if units <= 0 then invalid_arg "Accel.create: units must be positive";
  let dev =
    {
      sim;
      name;
      units;
      (* With autosuspend, the suspended draw is the true floor; the gap
         between it and [idle_w] is a lingering power state. *)
      rail =
        Power_rail.create ?retention
          ?floor_w:(match autosuspend with Some _ -> Some suspend_w | None -> None)
          sim ~name ~idle_w;
      activity = Bus.create ();
      dvfs = None;
      factor = 1.0;
      waiting = [];
      running = [];
      per_app = Array.make 8 0;
      on_complete = (fun _ -> ());
      busy_accum = 0;
      busy_units_now = 0;
      busy_mark = Sim.now sim;
      active_accum = 0;
      active_since = Sim.now sim;
      suspend_w;
      autosuspend;
      resume_delay;
      suspended = false;
      resuming = false;
      suspend_timer = Sim.none;
      suspended_accum = 0;
      suspended_since = Time.zero;
      util_mark = Sim.now sim;
      util_mark_accum = 0;
    }
  in
  let get_util () =
    accumulate_busy dev;
    let now = Sim.now sim in
    let window = now - dev.util_mark in
    let util =
      if window <= 0 then 0.0
      else
        float_of_int (dev.active_accum - dev.util_mark_accum)
        /. float_of_int window
    in
    dev.util_mark <- now;
    dev.util_mark_accum <- dev.active_accum;
    util
  in
  let d =
    Dvfs.create sim ~name:dev.name ~activity:dev.activity ~opps ~governor
      ~get_util ()
  in
  dev.dvfs <- Some d;
  ignore
    (Bus.subscribe (Dvfs.changes d) (fun _ ->
         (* Account progress at the old speed, then re-time completions. *)
         sync_all dev dev.running;
         dev.factor <- compute_factor (dvfs_exn dev);
         schedule_all dev dev.running;
         update_power dev));
  dev.factor <- compute_factor (dvfs_exn dev);
  update_power dev;
  dev

let name dev = dev.name
let rail dev = dev.rail
let dvfs dev = dvfs_exn dev
let units dev = dev.units

let submit dev cmd =
  cmd.submitted_at <- Sim.now dev.sim;
  Sim.cancel dev.sim dev.suspend_timer;
  dev.waiting <- dev.waiting @ [ cmd ];
  count dev cmd.app 1;
  if dev.suspended then begin
    dev.suspended <- false;
    dev.suspended_accum <-
      dev.suspended_accum + (Sim.now dev.sim - dev.suspended_since);
    dev.resuming <- true;
    update_power dev;
    ignore
      (Sim.schedule_after dev.sim dev.resume_delay (fun () ->
           dev.resuming <- false;
           start_waiting dev))
  end
  else start_waiting dev

let set_on_complete dev f = dev.on_complete <- f
let in_flight dev = List.length dev.waiting + List.length dev.running

let in_flight_of dev ~app =
  if app >= 0 && app < Array.length dev.per_app then dev.per_app.(app) else 0

let in_flight_apps dev =
  let r = ref [] in
  for app = Array.length dev.per_app - 1 downto 0 do
    if dev.per_app.(app) > 0 then r := app :: !r
  done;
  !r

let busy_units dev = dev.busy_units_now

let busy_unit_seconds dev =
  let now = Sim.now dev.sim in
  Time.to_sec_f (dev.busy_accum + ((now - dev.busy_mark) * dev.busy_units_now))

let active_seconds dev =
  let now = Sim.now dev.sim in
  let extra = if dev.busy_units_now > 0 then now - dev.active_since else 0 in
  Time.to_sec_f (dev.active_accum + extra)

let suspended dev = dev.suspended

let suspended_seconds dev =
  let extra =
    if dev.suspended then Sim.now dev.sim - dev.suspended_since else 0
  in
  Time.to_sec_f (dev.suspended_accum + extra)

let suspend_w dev = dev.suspend_w
let idle_w dev = Power_rail.idle_w dev.rail
let stop dev = Dvfs.stop (dvfs_exn dev)
