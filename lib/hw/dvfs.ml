open Psbox_engine
module Tm = Psbox_telemetry.Metrics
module Tt = Psbox_telemetry.Tracing

type opp = { freq_mhz : int; core_w : float; uncore_w : float }

type governor =
  | Ondemand of { up_threshold : float; sampling : Time.span }
  | Performance
  | Userspace

type change = { at : Time.t; index_before : int; index_after : int; opp : opp }

type t = {
  sim : Sim.t;
  opps : opp array;
  governor : governor;
  get_util : unit -> float;
  changes : change Bus.t;
  name : string;
  tm_transitions : Tm.counter;
  lbl_sample : Sim.label; (* interned: samples are hot one-shot events *)
  epoch : Time.t; (* anchor of the sampling grid (creation time) *)
  mutable index : int;
  mutable ceiling : int;
  mutable next : Sim.handle; (* armed sample; Sim.none while parked *)
  mutable stopped : bool;
  mutable frozen : bool;
}

let set_index d i =
  let i = max 0 (min i (min d.ceiling (Array.length d.opps - 1))) in
  if i <> d.index then begin
    let before = d.index in
    d.index <- i;
    Tm.incr d.tm_transitions;
    (if Tt.recording () then begin
       let now = Sim.now d.sim in
       let freq = float_of_int d.opps.(i).freq_mhz in
       Tt.instant ~track:"hw.dvfs" ~lane:d.name
         ~name:(Printf.sprintf "%d MHz" d.opps.(i).freq_mhz)
         ~args:[ ("freq_mhz", freq); ("index", float_of_int i) ]
         now;
       Tt.sample ~track:"hw.dvfs" ~name:(d.name ^ ".freq_mhz") now freq
     end);
    Bus.publish d.changes
      { at = Sim.now d.sim; index_before = before; index_after = i; opp = d.opps.(i) }
  end

(* Demand-armed governor sampling. Samples stay on the creation-epoch grid
   (epoch + k*sampling) so an active device behaves exactly like the old
   periodic timer; a device that reads zero utilization while already at
   the bottom OPP parks instead of re-arming, and an activity edge (or an
   externally raised OPP, or a thaw) unparks it. *)
let rec arm d ~up_threshold ~sampling =
  let k = ((Sim.now d.sim - d.epoch) / sampling) + 1 in
  d.next <-
    Sim.schedule_at d.sim ~label:d.lbl_sample (d.epoch + (k * sampling))
      (fun () -> sample d ~up_threshold ~sampling)

and sample d ~up_threshold ~sampling =
  d.next <- Sim.none;
  if not d.stopped then begin
    let util = d.get_util () in
    if not d.frozen then begin
      if util >= up_threshold then set_index d (Array.length d.opps - 1)
      else set_index d (d.index - 1)
    end;
    (* a frozen governor keeps sampling: each read resets the utilization
       window, so the first decision after a thaw sees one period of load,
       not the whole frozen stretch *)
    if not (util = 0.0 && d.index = 0 && not d.frozen) then
      arm d ~up_threshold ~sampling
  end

let unpark d =
  match d.governor with
  | Ondemand { up_threshold; sampling } ->
      if Sim.is_none d.next && not d.stopped then begin
        (* discard the idle stretch, as the periodic governor's regular
           reads would have, so the next sample's window starts here *)
        ignore (d.get_util ());
        arm d ~up_threshold ~sampling
      end
  | Performance | Userspace -> ()

let create sim ?(name = "dvfs") ?activity ~opps ~governor ~get_util () =
  if Array.length opps = 0 then invalid_arg "Dvfs.create: no OPPs";
  let index = match governor with Performance -> Array.length opps - 1 | Ondemand _ | Userspace -> 0 in
  let d =
    { sim; opps; governor; get_util; changes = Bus.create (); name;
      tm_transitions = Tm.counter (Printf.sprintf "dvfs.%s.transitions" name);
      lbl_sample = Sim.label ("dvfs." ^ name);
      epoch = Sim.now sim; index; ceiling = Array.length opps - 1;
      next = Sim.none; stopped = false; frozen = false }
  in
  (match governor with
  | Ondemand { up_threshold; sampling } -> arm d ~up_threshold ~sampling
  | Performance | Userspace -> ());
  (match activity with
  | Some bus -> ignore (Bus.subscribe bus (fun () -> unpark d))
  | None -> ());
  d

let name d = d.name

let opp_index d = d.index
let current d = d.opps.(d.index)
let opps d = d.opps

let set_opp d i =
  set_index d i;
  (* an externally raised OPP must decay again even on an idle device *)
  if d.index > 0 then unpark d

let max_index d = Array.length d.opps - 1
let changes d = d.changes

let ceiling d = d.ceiling

let set_ceiling d i =
  let i = max 0 (min i (Array.length d.opps - 1)) in
  d.ceiling <- i;
  if d.index > i then set_index d i

let freeze d = d.frozen <- true

let thaw d =
  d.frozen <- false;
  (* a freeze taken while parked suppressed unparks; catch up if the
     device meanwhile sits above the bottom OPP *)
  if d.index > 0 then unpark d

let frozen d = d.frozen

let stop d =
  d.stopped <- true;
  Sim.cancel d.sim d.next;
  d.next <- Sim.none
