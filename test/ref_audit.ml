(* The reference joule audit: the per-rail attribution kept with a share
   hash table, a [classify] pass that lists the (app, cause, watts) parts of
   the draw, and (app, cause)-keyed cells. Its telemetry counters are plain
   floats here, added to in the order the audit adds to its counters. The
   flat-storage [Audit] must reproduce its rows, totals and counters to the
   bit. *)
open Psbox_engine
module System = Psbox_kernel.System
module Audit = Psbox_audit.Audit
module Power_rail = Psbox_hw.Power_rail

type rstate = {
  floor_w : float;
  mutable cur_w : float;
  mutable seg_start : Time.t;
  mutable mark : Time.t;
  mutable total_j : float;
  shares : (int, float) Hashtbl.t;
  mutable last_active : int;
  mutable dvfs_index : int;
  cells : (int * Audit.cause, float) Hashtbl.t;
  mutable rail_j : float; (* the rail's counter *)
}

type t = {
  sys : System.t;
  rails : (string, rstate) Hashtbl.t;
  cause_j : (Audit.cause, float) Hashtbl.t; (* the cause counters *)
}

let classify rs =
  let w = rs.cur_w in
  if w <= 0.0 then []
  else begin
    let idle = Float.min w rs.floor_w in
    let dyn = w -. idle in
    let base = if idle > 0.0 then [ (0, Audit.Idle_floor, idle) ] else [] in
    if dyn <= 0.0 then base
    else begin
      let total_share, napps, an_app =
        Hashtbl.fold
          (fun app s (ts, n, _) ->
            if s > 0.0 then (ts +. s, n + 1, app) else (ts, n, app))
          rs.shares (0.0, 0, 0)
      in
      if napps = 0 then
        let cause =
          if rs.dvfs_index > 0 then Audit.Dvfs_transition else Audit.Lingering
        in
        (rs.last_active, cause, dyn) :: base
      else if napps = 1 then (an_app, Audit.Active, dyn) :: base
      else
        Hashtbl.fold
          (fun app s acc ->
            if s > 0.0 then
              (app, Audit.Shared_rail, dyn *. (s /. total_share)) :: acc
            else acc)
          rs.shares base
    end
  end

let flush a rs at =
  if at > rs.mark then begin
    let dt = Time.to_sec_f (at - rs.mark) in
    List.iter
      (fun (app, cause, w) ->
        let j = w *. dt in
        let cur =
          Option.value (Hashtbl.find_opt rs.cells (app, cause)) ~default:0.0
        in
        Hashtbl.replace rs.cells (app, cause) (cur +. j);
        rs.rail_j <- rs.rail_j +. j;
        let c = Option.value (Hashtbl.find_opt a.cause_j cause) ~default:0.0 in
        Hashtbl.replace a.cause_j cause (c +. j))
      (classify rs);
    rs.mark <- at
  end

let set_share a rs at app share =
  flush a rs at;
  if share > 0.0 then begin
    Hashtbl.replace rs.shares app share;
    rs.last_active <- app
  end
  else Hashtbl.remove rs.shares app

let attach sys =
  let a = { sys; rails = Hashtbl.create 8; cause_j = Hashtbl.create 8 } in
  let now = System.now sys in
  let add rail dvfs =
    let rs =
      {
        floor_w = Power_rail.floor_w rail;
        cur_w = Power_rail.power rail;
        seg_start = now;
        mark = now;
        total_j = 0.0;
        shares = Hashtbl.create 4;
        last_active = 0;
        dvfs_index = 0;
        cells = Hashtbl.create 16;
        rail_j = 0.0;
      }
    in
    Hashtbl.replace a.rails (Power_rail.name rail) rs;
    Option.iter
      (fun d ->
        rs.dvfs_index <- Psbox_hw.Dvfs.opp_index d;
        ignore
          (Bus.subscribe (Psbox_hw.Dvfs.changes d)
             (fun (ch : Psbox_hw.Dvfs.change) ->
               flush a rs ch.at;
               rs.dvfs_index <- ch.index_after)))
      dvfs;
    rs
  in
  let cpu = System.cpu sys in
  let cpu_rs = add (Psbox_hw.Cpu.rail cpu) (Some (Psbox_hw.Cpu.dvfs cpu)) in
  ignore
    (Bus.subscribe (Psbox_kernel.Smp.share_bus (System.smp sys))
       (fun (c : Share_table.change) ->
         set_share a cpu_rs c.at c.app c.share));
  let accel drv =
    let module Ad = Psbox_kernel.Accel_driver in
    let dev = Ad.device drv in
    let rs = add (Psbox_hw.Accel.rail dev) (Some (Psbox_hw.Accel.dvfs dev)) in
    ignore
      (Bus.subscribe (Ad.share_bus drv) (fun (c : Share_table.change) ->
           set_share a rs c.at c.app c.share))
  in
  if System.has_gpu sys then accel (System.gpu sys);
  if System.has_dsp sys then accel (System.dsp sys);
  if System.has_wifi sys then begin
    let module Ns = Psbox_kernel.Net_sched in
    let n = System.net sys in
    let rs = add (Psbox_hw.Wifi.rail (Ns.nic n)) None in
    ignore
      (Bus.subscribe (Ns.share_bus n) (fun (c : Share_table.change) ->
           set_share a rs c.at c.app c.share))
  end;
  if System.has_display sys then
    ignore (add (Psbox_hw.Display.rail (System.display sys)) None);
  if System.has_gps sys then
    ignore (add (Psbox_hw.Gps.rail (System.gps sys)) None);
  ignore
    (Bus.subscribe (System.power_bus sys) (fun (tr : Power_rail.transition) ->
         match Hashtbl.find_opt a.rails tr.rail_name with
         | Some rs ->
             flush a rs tr.at;
             rs.total_j <-
               rs.total_j +. (rs.cur_w *. Time.to_sec_f (tr.at - rs.seg_start));
             rs.seg_start <- tr.at;
             rs.cur_w <- tr.after_w
         | None -> (
             (* "<physical>.app<id>" rails feed their physical rail's shares *)
             match String.index_opt tr.rail_name '.' with
             | None -> ()
             | Some i -> (
                 let phys = String.sub tr.rail_name 0 i in
                 let n = String.length tr.rail_name - i - 1 in
                 let rest = String.sub tr.rail_name (i + 1) n in
                 let app =
                   if n > 3 && String.sub rest 0 3 = "app" then
                     int_of_string_opt (String.sub rest 3 (n - 3))
                   else None
                 in
                 match (Hashtbl.find_opt a.rails phys, app) with
                 | Some rs, Some app -> set_share a rs tr.at app tr.after_w
                 | _ -> ()))));
  a

let rail_total a ~rail =
  let rs = Hashtbl.find a.rails rail in
  rs.total_j +. (rs.cur_w *. Time.to_sec_f (System.now a.sys - rs.seg_start))

(* The closing idle-floor remainder rows, as [Audit.rows] documents. *)
let rows a ~rail =
  let rs = Hashtbl.find a.rails rail in
  flush a rs (System.now a.sys);
  let total = rail_total a ~rail in
  let others =
    Hashtbl.fold
      (fun (app, cause) j acc ->
        if app = 0 && cause = Audit.Idle_floor then acc
        else (app, cause, j) :: acc)
      rs.cells []
    |> List.sort compare
  in
  let folded = List.fold_left (fun acc (_, _, j) -> acc +. j) 0.0 others in
  let r1 = total -. folded in
  let dust = total -. (folded +. r1) in
  List.map (fun (app, cause, j) -> (app, cause, j, false)) others
  @ ((0, Audit.Idle_floor, r1, true)
    :: (if dust = 0.0 then [] else [ (0, Audit.Idle_floor, dust, true) ]))

let rail_counter a ~rail = (Hashtbl.find a.rails rail).rail_j

let cause_counter a cause =
  match Hashtbl.find_opt a.cause_j cause with Some j -> j | None -> 0.0
