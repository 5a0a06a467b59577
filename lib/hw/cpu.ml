open Psbox_engine

type t = {
  sim : Sim.t;
  cores : int;
  busy : bool array;
  (* cumulative busy time per core, updated lazily on transitions *)
  busy_accum : Time.span array;
  busy_since : Time.t array;
  mutable active_accum : Time.span; (* time with >=1 core busy *)
  mutable active_since : Time.t;
  mutable util_mark : Time.t; (* governor window start *)
  mutable util_mark_accum : Time.span; (* active time at window start *)
  rail : Power_rail.t;
  activity : unit Bus.t; (* published on each idle-to-busy edge *)
  mutable dvfs : Dvfs.t option;
}

(* The uncore (shared clock tree, interconnect, L2) draws comparably to one
   core: that shared term is what entangles concurrent apps' power on a
   single rail (Figure 3(a) of the paper). *)
let default_opps =
  [|
    { Dvfs.freq_mhz = 500; core_w = 0.17; uncore_w = 0.20 };
    { Dvfs.freq_mhz = 800; core_w = 0.33; uncore_w = 0.36 };
    { Dvfs.freq_mhz = 1000; core_w = 0.50; uncore_w = 0.55 };
    { Dvfs.freq_mhz = 1200; core_w = 0.70; uncore_w = 0.80 };
    { Dvfs.freq_mhz = 1500; core_w = 1.00; uncore_w = 1.20 };
  |]

let busy_cores cpu =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 cpu.busy

let dvfs_exn cpu =
  match cpu.dvfs with Some d -> d | None -> assert false

let update_power cpu =
  let opp = Dvfs.current (dvfs_exn cpu) in
  let n = busy_cores cpu in
  let w =
    Power_rail.idle_w cpu.rail
    +. (if n > 0 then opp.uncore_w else 0.0)
    +. (float_of_int n *. opp.core_w)
  in
  Power_rail.set_power cpu.rail w

(* Total busy core-time accumulated up to now, across all cores. *)
let total_busy_time cpu =
  let now = Sim.now cpu.sim in
  let acc = ref 0 in
  for c = 0 to cpu.cores - 1 do
    acc := !acc + cpu.busy_accum.(c);
    if cpu.busy.(c) then acc := !acc + (now - cpu.busy_since.(c))
  done;
  !acc

(* Time during which the CPU was non-idle (any core busy) — the ondemand
   governor's notion of load. *)
let total_active_time cpu =
  let now = Sim.now cpu.sim in
  cpu.active_accum + (if busy_cores cpu > 0 then now - cpu.active_since else 0)

let create sim ?retention ?(name = "cpu") ?(opps = default_opps)
    ?(governor = Dvfs.Ondemand { up_threshold = 0.7; sampling = Time.ms 50 })
    ?(idle_w = 0.3) ~cores () =
  if cores <= 0 then invalid_arg "Cpu.create: cores must be positive";
  let cpu =
    {
      sim;
      cores;
      busy = Array.make cores false;
      busy_accum = Array.make cores 0;
      busy_since = Array.make cores Time.zero;
      active_accum = 0;
      active_since = Time.zero;
      util_mark = Sim.now sim;
      util_mark_accum = 0;
      rail = Power_rail.create ?retention sim ~name ~idle_w;
      activity = Bus.create ();
      dvfs = None;
    }
  in
  let get_util () =
    let now = Sim.now sim in
    let total = total_active_time cpu in
    let window = now - cpu.util_mark in
    let util =
      if window <= 0 then 0.0
      else float_of_int (total - cpu.util_mark_accum) /. float_of_int window
    in
    cpu.util_mark <- now;
    cpu.util_mark_accum <- total;
    util
  in
  let d =
    Dvfs.create sim ~name:"cpu" ~activity:cpu.activity ~opps ~governor
      ~get_util ()
  in
  cpu.dvfs <- Some d;
  ignore (Bus.subscribe (Dvfs.changes d) (fun _ -> update_power cpu));
  update_power cpu;
  cpu

let cores cpu = cpu.cores
let rail cpu = cpu.rail
let dvfs cpu = dvfs_exn cpu

let set_core_busy cpu ~core busy =
  if core < 0 || core >= cpu.cores then invalid_arg "Cpu.set_core_busy: bad core";
  if cpu.busy.(core) <> busy then begin
    let now = Sim.now cpu.sim in
    let was_active = busy_cores cpu > 0 in
    if busy then cpu.busy_since.(core) <- now
    else cpu.busy_accum.(core) <- cpu.busy_accum.(core) + (now - cpu.busy_since.(core));
    cpu.busy.(core) <- busy;
    let is_active = busy_cores cpu > 0 in
    if (not was_active) && is_active then cpu.active_since <- now
    else if was_active && not is_active then
      cpu.active_accum <- cpu.active_accum + (now - cpu.active_since);
    update_power cpu;
    (* after the accounting so a woken governor reads a fresh window *)
    if (not was_active) && is_active then Bus.publish cpu.activity ()
  end

let freq_mhz cpu = (Dvfs.current (dvfs_exn cpu)).Dvfs.freq_mhz

let busy_core_seconds cpu = Time.to_sec_f (total_busy_time cpu)
let active_seconds cpu = Time.to_sec_f (total_active_time cpu)

let stop cpu = Dvfs.stop (dvfs_exn cpu)
