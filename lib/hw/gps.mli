(** GPS receiver model (§7 extension 2).

    The GPS draws the same power however many apps use it: once operating,
    concurrent use does not entangle. Its one problematic state is the
    off/suspended one — cold-starting the receiver per psbox would be
    prohibitively expensive, and *revealing* off/on transitions would leak
    other apps' localization activity. So, per the paper: the kernel reveals
    the device's operating power directly to the psbox of any app holding a
    subscription, and feeds idle (off) power otherwise.

    States: off -> acquiring (cold start, hot) -> tracking (steady). The
    device turns off when the last subscriber leaves. *)

type state = Off | Acquiring | Tracking

type t

val create :
  Psbox_engine.Sim.t ->
  ?retention:Psbox_engine.Time.span ->
  ?name:string ->
  ?cold_start:Psbox_engine.Time.span ->
  ?acquire_w:float ->
  ?track_w:float ->
  ?off_w:float ->
  unit ->
  t
(** Defaults: 8 s cold start at 0.18 W, 0.09 W tracking, 2 mW off.
    [retention] bounds the power history of the device rail and every
    per-app rail (see {!Power_rail.create}). *)

val rail : t -> Power_rail.t
val state : t -> state

val subscribe : t -> app:int -> unit
(** Idempotent. The first subscriber cold-starts the receiver; later ones
    join the live fix at no extra power. *)

val unsubscribe : t -> app:int -> unit
(** The last unsubscribe powers the receiver off immediately. *)

val subscribers : t -> int

val app_rail : t -> app:int -> Power_rail.t
(** The per-app view a psbox exposes: the device's power while this app is
    subscribed, [off_w] otherwise — other apps' fixes never show. *)

val set_on_app_rail : t -> (Power_rail.t -> unit) -> unit
(** Install a hook fired for every lazily-created per-app rail, so machine
    composition can forward attribution rails created after boot onto the
    machine bus. Rails that already exist are passed to the hook
    immediately; only one hook is kept. *)

val has_fix : t -> bool
