open Psbox_engine
module System = Psbox_kernel.System
module Smp = Psbox_kernel.Smp
module Accel_driver = Psbox_kernel.Accel_driver
module Net_sched = Psbox_kernel.Net_sched
module Psbox = Psbox_core.Psbox
module Usage = Psbox_accounting.Usage
module W = Psbox_workloads.Workload

type job = {
  t0 : Time.t;
  t1 : Time.t;
  dur_s : float;
  rail_mj : float;
  psbox_mj : float option;
}

let run_job sys ~rail ~main ?psbox ?(timeout = Time.sec 30) () =
  System.start sys;
  (match psbox with Some b -> Psbox.enter b | None -> ());
  let t0 = System.now sys in
  W.run_until_idle sys ~apps:[ main ] ~timeout;
  let t1 = System.now sys in
  let psbox_mj =
    match psbox with
    | Some b ->
        let mj = Psbox.read_mj b in
        Psbox.leave b;
        Some mj
    | None -> None
  in
  {
    t0;
    t1;
    dur_s = Time.to_sec_f (t1 - t0);
    rail_mj = Psbox_hw.Power_rail.energy_j rail ~from:t0 ~until:t1 *. 1e3;
    psbox_mj;
  }

let cpu_usages sys =
  let smp = System.smp sys in
  Smp.stop smp;
  Usage.of_sched_trace
    ~cores:(Smp.cores smp)
    (Trace.to_spans (Smp.sched_trace smp))

let accel_usages driver =
  Usage.of_commands
    ~units:(Psbox_hw.Accel.units (Accel_driver.device driver))
    (Accel_driver.completed_commands driver)

let wifi_usages sys =
  Usage.of_packets (Net_sched.packet_log (System.net sys))

let attributed_mj result ~app =
  match List.assoc_opt app.System.app_id result with
  | Some j -> j *. 1e3
  | None -> 0.0

let pct reference x =
  if reference = 0.0 then 0.0 else 100.0 *. (x -. reference) /. reference

(* Value formatters shared by every experiment, so the reports agree on
   precision and unit spelling. *)

let fmt_w ?(dp = 2) w = Printf.sprintf "%.*f W" dp w
let fmt_s s = Printf.sprintf "%.3f s" s

let fmt_ms ?(dp = 1) ?(tight = false) ms =
  Printf.sprintf "%.*f" dp ms ^ if tight then "ms" else " ms"

let fmt_us us = Printf.sprintf "%.0f us" us
let fmt_us_delta us = Printf.sprintf "%+.0f us" us
let fmt_mj mj = Printf.sprintf "%.0f mJ" mj
let fmt_pct1 p = Printf.sprintf "%.1f%%" p
let fmt_pct0_signed p = Printf.sprintf "%+.0f%%" p
let fmt_ratio r = Printf.sprintf "%.2f" r
let fmt_rate ~unit r = Printf.sprintf "%.0f %s/s" r unit

let fmt_attributed ~alone mj =
  Printf.sprintf "%s (%s)" (Report.fmt_mj mj) (Report.fmt_pct (pct alone mj))
