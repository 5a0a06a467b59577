open Psbox_engine

type pkt = {
  id : int;
  app : int;
  socket : int;
  bytes : int;
  dir : [ `Tx | `Rx ];
  mutable queued_at : Time.t;
  mutable air_start : Time.t option;
  mutable air_end : Time.t option;
}

(* Domain-local, like Task and Entity ids, so concurrent device
   simulations number their packets without racing on a shared counter. *)
let next_pkt_id = Domain.DLS.new_key (fun () -> ref 0)

let packet ~app ~socket ~bytes ?(dir = `Tx) () =
  let next = Domain.DLS.get next_pkt_id in
  incr next;
  {
    id = !next;
    app;
    socket;
    bytes;
    dir;
    queued_at = Time.zero;
    air_start = None;
    air_end = None;
  }

(* What [on_air] holds while no frame is on the air. *)
let no_pkt =
  {
    id = -1;
    app = -1;
    socket = 0;
    bytes = 0;
    dir = `Tx;
    queued_at = Time.zero;
    air_start = None;
    air_end = None;
  }

type power_state = { tx_level : int; awake : bool }

type t = {
  sim : Sim.t;
  rail : Power_rail.t;
  rate_bps : float;
  overhead : Time.span;
  tail : Time.span;
  ps_w : float;
  awake_w : float;
  tx_levels : float array;
  rx_w : float;
  vmacs : bool;
  reassoc_delay : Time.span;
  mutable level : int;
  mutable awake : bool;
  mutable on_air : pkt; (* no_pkt when nothing is on the air *)
  mutable queue : pkt list; (* FIFO, head oldest *)
  mutable per_app : int array; (* frames in flight, by app id *)
  mutable frame_done : unit -> unit; (* ends the frame on the air; built once *)
  mutable on_sent : pkt -> unit;
  mutable tail_timer : Sim.handle;
  mutable airtime_accum : Time.span;
  mutable air_since : Time.t;
  (* power-state residency counters (for counter-driven power models):
     time awake, on-air time per TX level, on-air RX time *)
  mutable awake_accum : Time.span;
  mutable awake_since : Time.t;
  tx_air_by_level : Time.span array;
  mutable rx_air_accum : Time.span;
  mutable on_air_level : int; (* TX level when the on-air frame started *)
  mutable mac : int;
  mutable associated : bool;
  mutable mode_adapt : bool;
  mutable mode_frozen : bool;
  (* frames ended inside the mode-adaptation window, oldest first: a ring
     of (end instant, airtime) from [air_head], [air_n] long, whose
     airtimes sum to [air_sum] *)
  mutable air_ends : Time.t array;
  mutable air_lens : Time.span array;
  mutable air_head : int;
  mutable air_n : int;
  mutable air_sum : Time.span;
}

let update_power nic =
  let w =
    if not nic.awake then nic.ps_w
    else
      let p = nic.on_air in
      if p == no_pkt then nic.awake_w
      else
        match p.dir with
        | `Tx -> nic.awake_w +. nic.tx_levels.(nic.level)
        | `Rx -> nic.awake_w +. nic.rx_w
  in
  Power_rail.set_power nic.rail w

let set_awake_state nic b =
  if nic.awake <> b then begin
    let now = Sim.now nic.sim in
    if b then nic.awake_since <- now
    else nic.awake_accum <- nic.awake_accum + (now - nic.awake_since);
    nic.awake <- b
  end

let cancel_tail nic =
  Sim.cancel nic.sim nic.tail_timer;
  nic.tail_timer <- Sim.none

let arm_tail nic =
  cancel_tail nic;
  nic.tail_timer <-
    Sim.schedule_after nic.sim nic.tail (fun () ->
        nic.tail_timer <- Sim.none;
        if nic.on_air == no_pkt && nic.queue = [] then begin
          set_awake_state nic false;
          update_power nic
        end)

let wake nic =
  cancel_tail nic;
  if not nic.awake then begin
    set_awake_state nic true;
    update_power nic
  end

(* The mode-adaptation window: frames that ended [window] or more before
   [now] leave it. Frames end in time order, so they are the oldest in the
   ring, and once out they stay out. *)
let window = Time.ms 200

let drain_air nic now =
  while nic.air_n > 0 && now - nic.air_ends.(nic.air_head) >= window do
    nic.air_sum <- nic.air_sum - nic.air_lens.(nic.air_head);
    nic.air_head <- (nic.air_head + 1) mod Array.length nic.air_ends;
    nic.air_n <- nic.air_n - 1
  done

let push_air nic t_end air =
  drain_air nic t_end;
  let cap = Array.length nic.air_ends in
  if nic.air_n = cap then begin
    let ends = Array.make (2 * cap) 0 and lens = Array.make (2 * cap) 0 in
    for i = 0 to nic.air_n - 1 do
      let j = (nic.air_head + i) mod cap in
      ends.(i) <- nic.air_ends.(j);
      lens.(i) <- nic.air_lens.(j)
    done;
    nic.air_ends <- ends;
    nic.air_lens <- lens;
    nic.air_head <- 0
  end;
  let j = (nic.air_head + nic.air_n) mod Array.length nic.air_ends in
  nic.air_ends.(j) <- t_end;
  nic.air_lens.(j) <- air;
  nic.air_n <- nic.air_n + 1;
  nic.air_sum <- nic.air_sum + air

(* Mode adaptation: utilization of the channel over the trailing window
   decides the transmission mode (TX level). *)
let adapt_mode nic =
  if nic.mode_adapt && not nic.mode_frozen then begin
    drain_air nic (Sim.now nic.sim);
    let util = float_of_int nic.air_sum /. float_of_int window in
    let top = Array.length nic.tx_levels - 1 in
    let level =
      if util > 0.5 then top
      else if util > 0.15 then min 1 top
      else 0
    in
    if level <> nic.level then begin
      nic.level <- level;
      update_power nic
    end
  end

let count nic app delta =
  if app >= Array.length nic.per_app then begin
    let a = Array.make (max (app + 1) (2 * Array.length nic.per_app)) 0 in
    Array.blit nic.per_app 0 a 0 (Array.length nic.per_app);
    nic.per_app <- a
  end;
  nic.per_app.(app) <- nic.per_app.(app) + delta

let rec send_next nic =
  if nic.on_air == no_pkt && nic.associated then
    match nic.queue with
    | [] -> ()
    | p :: rest ->
        nic.queue <- rest;
        wake nic;
        let now = Sim.now nic.sim in
        p.air_start <- Some now;
        nic.on_air <- p;
        nic.air_since <- now;
        adapt_mode nic;
        nic.on_air_level <- nic.level;
        update_power nic;
        (* [Time.of_sec_f], spelled out so the float is not boxed *)
        let airtime =
          int_of_float
            (Float.round (float_of_int (p.bytes * 8) /. nic.rate_bps *. 1e9))
          + nic.overhead
        in
        ignore (Sim.schedule_after nic.sim (max 1 airtime) nic.frame_done)

and end_frame nic =
  let p = nic.on_air in
  let now = Sim.now nic.sim in
  p.air_end <- Some now;
  nic.on_air <- no_pkt;
  count nic p.app (-1);
  let air = now - nic.air_since in
  nic.airtime_accum <- nic.airtime_accum + air;
  (match p.dir with
  | `Tx ->
      nic.tx_air_by_level.(nic.on_air_level) <-
        nic.tx_air_by_level.(nic.on_air_level) + air
  | `Rx -> nic.rx_air_accum <- nic.rx_air_accum + air);
  push_air nic now air;
  update_power nic;
  arm_tail nic;
  nic.on_sent p;
  send_next nic

let create sim ?retention ?(name = "wifi") ?(rate_mbps = 40.0)
    ?(overhead = Time.us 200) ?(tail = Time.ms 80) ?(ps_w = 0.03)
    ?(awake_w = 0.25) ?(tx_levels = [| 0.5; 0.7; 0.9 |]) ?(rx_w = 0.45)
    ?(virtual_macs = false) ?(reassoc_delay = Time.ms 150) () =
  if Array.length tx_levels = 0 then invalid_arg "Wifi.create: no TX levels";
  let nic =
    {
      sim;
      rail = Power_rail.create ?retention sim ~name ~idle_w:ps_w;
      rate_bps = rate_mbps *. 1e6;
      overhead;
      tail;
      ps_w;
      awake_w;
      tx_levels;
      rx_w;
      vmacs = virtual_macs;
      reassoc_delay;
      level = Array.length tx_levels - 1;
      awake = false;
      on_air = no_pkt;
      queue = [];
      per_app = Array.make 8 0;
      frame_done = ignore;
      on_sent = (fun _ -> ());
      tail_timer = Sim.none;
      airtime_accum = 0;
      air_since = Time.zero;
      awake_accum = 0;
      awake_since = Time.zero;
      tx_air_by_level = Array.make (Array.length tx_levels) 0;
      rx_air_accum = 0;
      on_air_level = 0;
      mac = 0;
      associated = true;
      mode_adapt = true;
      mode_frozen = false;
      air_ends = Array.make 16 0;
      air_lens = Array.make 16 0;
      air_head = 0;
      air_n = 0;
      air_sum = 0;
    }
  in
  nic.frame_done <- (fun () -> end_frame nic);
  update_power nic;
  nic

let rail nic = nic.rail
let rate_bps nic = nic.rate_bps
let tail nic = nic.tail
let awake_w nic = nic.awake_w
let ps_w nic = nic.ps_w
let set_mode_adapt nic b = nic.mode_adapt <- b
let freeze_mode nic = nic.mode_frozen <- true
let thaw_mode nic = nic.mode_frozen <- false

let transmit nic p =
  p.queued_at <- Sim.now nic.sim;
  nic.queue <- nic.queue @ [ p ];
  count nic p.app 1;
  send_next nic

let set_on_sent nic f = nic.on_sent <- f

let in_flight nic =
  List.length nic.queue + if nic.on_air == no_pkt then 0 else 1

let in_flight_of nic ~app =
  if app >= 0 && app < Array.length nic.per_app then nic.per_app.(app) else 0

let in_flight_apps nic =
  let r = ref [] in
  for app = Array.length nic.per_app - 1 downto 0 do
    if nic.per_app.(app) > 0 then r := app :: !r
  done;
  !r

let airtime_seconds nic =
  let extra =
    if nic.on_air == no_pkt then 0 else Sim.now nic.sim - nic.air_since
  in
  Time.to_sec_f (nic.airtime_accum + extra)

let awake nic = nic.awake

let awake_seconds nic =
  let extra = if nic.awake then Sim.now nic.sim - nic.awake_since else 0 in
  Time.to_sec_f (nic.awake_accum + extra)

let tx_level_count nic = Array.length nic.tx_levels

let tx_airtime_seconds nic ~level =
  let p = nic.on_air in
  let extra =
    if p != no_pkt && p.dir = `Tx && nic.on_air_level = level then
      Sim.now nic.sim - nic.air_since
    else 0
  in
  Time.to_sec_f (nic.tx_air_by_level.(level) + extra)

let rx_airtime_seconds nic =
  let p = nic.on_air in
  let extra =
    if p != no_pkt && p.dir = `Rx then Sim.now nic.sim - nic.air_since else 0
  in
  Time.to_sec_f (nic.rx_air_accum + extra)

let tx_level nic = nic.level

let set_tx_level nic level =
  if level < 0 || level >= Array.length nic.tx_levels then
    invalid_arg "Wifi.set_tx_level: bad level";
  nic.level <- level;
  update_power nic

let power_state nic = { tx_level = nic.level; awake = nic.awake }

let restore_power_state nic st =
  set_tx_level nic st.tx_level;
  if st.awake then begin
    wake nic;
    if nic.on_air == no_pkt then arm_tail nic
  end
  else if nic.on_air == no_pkt && nic.queue = [] then begin
    cancel_tail nic;
    set_awake_state nic false;
    update_power nic
  end

let virtual_macs nic = nic.vmacs

let switch_mac nic ~mac =
  if mac <> nic.mac then begin
    nic.mac <- mac;
    if not nic.vmacs then begin
      (* MAC switch resets the chip's association with the base station. *)
      nic.associated <- false;
      ignore
        (Sim.schedule_after nic.sim nic.reassoc_delay (fun () ->
             nic.associated <- true;
             send_next nic))
    end
  end

let associated nic = nic.associated
