(** Cellular (LTE/4G) interface model (§7 extension 3 — the negative case).

    The radio's RRC power states are driven by timers agreed with the
    network, not by the OS: after traffic the radio holds the hot DCH state
    for seconds, demotes to FACH, and only then returns to idle (the
    long-tail behaviour of Huang et al. [41]). Because the OS cannot save or
    restore these states, psbox's power-state virtualization is infeasible
    here — the paper defers cellular psbox to future hardware support. This
    model exists to demonstrate exactly that: an app's observed
    energy-per-transfer swings with whatever its neighbours did to the
    radio state.

    States: [Idle] (20 mW) -> promotion (2 s of signaling at 0.45 W) -> [Dch] (1.0 W
    while active, holds 5 s after traffic) -> [Fach] (0.4 W, holds 12 s) ->
    [Idle]. *)

type state = Idle | Promoting | Dch | Fach

type t

val create :
  Psbox_engine.Sim.t ->
  ?name:string ->
  ?rate_mbps:float ->
  ?idle_w:float ->
  ?fach_w:float ->
  ?dch_w:float ->
  ?promoting_w:float ->
  ?promotion:Psbox_engine.Time.span ->
  ?dch_tail:Psbox_engine.Time.span ->
  ?fach_tail:Psbox_engine.Time.span ->
  unit ->
  t

val rail : t -> Power_rail.t
val state : t -> state

val send : t -> app:int -> bytes:int -> on_sent:(unit -> unit) -> unit
(** Queue a transfer; it transmits (FIFO) once the radio reaches DCH. *)

val sent_bytes : t -> app:int -> int

(** There is deliberately no [power_state]/[restore_power_state] pair here:
    the RRC machine belongs to the network. *)
