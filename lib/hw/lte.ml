open Psbox_engine

type state = Idle | Promoting | Dch | Fach

type pending = { p_app : int; p_bytes : int; p_done : unit -> unit }

type t = {
  sim : Sim.t;
  rate_bps : float;
  idle_w : float;
  fach_w : float;
  dch_w : float;
  promoting_w : float;
  promotion : Time.span;
  dch_tail : Time.span;
  fach_tail : Time.span;
  rail : Power_rail.t;
  mutable st : state;
  mutable on_air : bool;
  queue : pending Queue.t;
  mutable demote : Sim.handle;
  sent : (int, int) Hashtbl.t;
}

let create sim ?(name = "lte") ?(rate_mbps = 20.0) ?(idle_w = 0.02)
    ?(fach_w = 0.4) ?(dch_w = 1.0) ?(promoting_w = 0.45)
    ?(promotion = Time.sec 2) ?(dch_tail = Time.sec 5)
    ?(fach_tail = Time.sec 12) () =
  {
    sim;
    rate_bps = rate_mbps *. 1e6;
    idle_w;
    fach_w;
    dch_w;
    promoting_w;
    promotion;
    dch_tail;
    fach_tail;
    rail = Power_rail.create sim ~name ~idle_w;
    st = Idle;
    on_air = false;
    queue = Queue.create ();
    demote = Sim.none;
    sent = Hashtbl.create 4;
  }

let rail r = r.rail
let state r = r.st

let update_power r =
  let w =
    match r.st with
    | Idle -> r.idle_w
    | Promoting -> r.promoting_w
    | Dch -> r.dch_w
    | Fach -> r.fach_w
  in
  Power_rail.set_power r.rail w

let cancel_demote r =
  Sim.cancel r.sim r.demote;
  r.demote <- Sim.none

(* The network's demotion timers: DCH -> FACH -> Idle. The OS has no say. *)
let rec arm_demotion r =
  cancel_demote r;
  match r.st with
  | Dch ->
      r.demote <-
        Sim.schedule_after r.sim r.dch_tail (fun () ->
            if r.st = Dch && not r.on_air && Queue.is_empty r.queue then begin
              r.st <- Fach;
              update_power r;
              arm_demotion r
            end)
  | Fach ->
      r.demote <-
        Sim.schedule_after r.sim r.fach_tail (fun () ->
            if r.st = Fach then begin
              r.st <- Idle;
              update_power r
            end)
  | Idle | Promoting -> ()

let rec transmit_next r =
  if (not r.on_air) && r.st = Dch then
    match Queue.take_opt r.queue with
    | None -> arm_demotion r
    | Some p ->
        r.on_air <- true;
        let airtime =
          Time.of_sec_f (float_of_int (p.p_bytes * 8) /. r.rate_bps)
        in
        ignore
          (Sim.schedule_after r.sim (max 1 airtime) (fun () ->
               r.on_air <- false;
               let cur =
                 match Hashtbl.find_opt r.sent p.p_app with
                 | Some n -> n
                 | None -> 0
               in
               Hashtbl.replace r.sent p.p_app (cur + p.p_bytes);
               p.p_done ();
               transmit_next r))

let promote r =
  match r.st with
  | Dch -> transmit_next r
  | Promoting -> ()
  | Fach | Idle ->
      (* FACH promotes faster in reality; one promotion delay keeps the
         model simple and conservative *)
      cancel_demote r;
      r.st <- Promoting;
      update_power r;
      ignore
        (Sim.schedule_after r.sim r.promotion (fun () ->
             if r.st = Promoting then begin
               r.st <- Dch;
               update_power r;
               transmit_next r
             end))

let send r ~app ~bytes ~on_sent =
  Queue.push { p_app = app; p_bytes = bytes; p_done = on_sent } r.queue;
  promote r

let sent_bytes r ~app =
  match Hashtbl.find_opt r.sent app with Some n -> n | None -> 0
