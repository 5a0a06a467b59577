open Psbox_engine

type t = { rate_hz : int; period : Time.span; noise_w : float; rng : Rng.t option }

let create ?(rate_hz = 100_000) ?(noise_w = 0.0) ?rng () =
  if rate_hz <= 0 then invalid_arg "Daq.create: rate must be positive";
  if noise_w > 0.0 && rng = None then
    invalid_arg "Daq.create: noise requires an rng";
  { rate_hz; period = 1_000_000_000 / rate_hz; noise_w; rng }

let rate_hz daq = daq.rate_hz
let period daq = daq.period

let noisy daq w =
  match daq.rng with
  | Some rng when daq.noise_w > 0.0 ->
      Float.max 0.0 (w +. Rng.gaussian rng ~mu:0.0 ~sigma:daq.noise_w)
  | Some _ | None -> w

let capture daq rail ~from ~until =
  let tl = Psbox_hw.Power_rail.timeline rail in
  let n = max (((until - from) / daq.period) + 1) 0 in
  let out = Array.make n (Sample.make from 0.0) in
  let k = ref 0 in
  Timeline.iter_samples tl ~period:daq.period ~from ~until ~f:(fun t w ->
      out.(!k) <- Sample.make t (noisy daq w);
      incr k);
  out

(* ------------------------------------------------------------------ *)
(* Live monitoring: a bus subscriber instead of a poller.               *)

type monitor = {
  mutable last_w : float;
  mutable last_t : Time.t;
  mutable acc_j : float;
  mutable transitions : int;
  mutable peak_w : float;
  mutable sub : Bus.subscription option;
}

let monitor ~from rail =
  let w0 = Psbox_hw.Power_rail.power rail in
  let m =
    { last_w = w0; last_t = from; acc_j = 0.0; transitions = 0; peak_w = w0; sub = None }
  in
  m.sub <-
    Some
      (Bus.subscribe (Psbox_hw.Power_rail.transitions rail) (fun tr ->
           let open Psbox_hw.Power_rail in
           m.acc_j <- m.acc_j +. (m.last_w *. Time.to_sec_f (tr.at - m.last_t));
           m.last_t <- tr.at;
           m.last_w <- tr.after_w;
           m.transitions <- m.transitions + 1;
           if tr.after_w > m.peak_w then m.peak_w <- tr.after_w));
  m

let monitor_energy_j m ~until =
  m.acc_j +. (m.last_w *. Time.to_sec_f (until - m.last_t))

let monitor_transitions m = m.transitions
let monitor_peak_w m = m.peak_w

let monitor_detach m =
  match m.sub with
  | Some s ->
      Bus.unsubscribe s;
      m.sub <- None
  | None -> ()
