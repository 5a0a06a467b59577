(** Prior-art power accounting heuristics (§2.3, §9).

    Each heuristic divides a rail's metered power among apps from their
    hardware usage. These are the "existing approach" baselines of Figure 6;
    all of them cope with power entanglement {e after} it has occurred,
    which is exactly what the paper shows cannot work.

    All functions return per-app energy in joules over the window, and the
    total attributed energy never exceeds the rail energy. *)

type result = (int * float) list
(** app id -> attributed energy (J). *)

val usage_split :
  Psbox_engine.Timeline.t ->
  Usage.span list ->
  from:Psbox_engine.Time.t ->
  until:Psbox_engine.Time.t ->
  result
(** AppScope-style [96]: each instant's power is divided among apps in
    proportion to their hardware usage at that instant (we integrate exactly
    over constant-share segments, i.e. at even finer granularity than the
    paper's favourable 10 us reimplementation). Power during intervals where
    nobody uses the device is attributed to no one. *)

val even_split :
  Psbox_engine.Timeline.t ->
  Usage.span list ->
  from:Psbox_engine.Time.t ->
  until:Psbox_engine.Time.t ->
  result
(** V-edge-style [94]: power is split evenly among the apps active at each
    instant, regardless of how much of the device each uses. *)

val last_entity :
  Psbox_engine.Timeline.t ->
  Usage.span list ->
  from:Psbox_engine.Time.t ->
  until:Psbox_engine.Time.t ->
  result
(** Eprof-style [70]: power is attributed to the app that used the hardware
    most recently — including lingering-state (tail) power after the app
    stopped, until another app takes over. *)

val shared_baseline :
  Psbox_engine.Timeline.t ->
  idle_w:float ->
  Usage.span list ->
  from:Psbox_engine.Time.t ->
  until:Psbox_engine.Time.t ->
  result
(** Power-Containers-style [81]: power above the idle baseline is divided by
    usage share; the shared baseline is split evenly among active apps. *)

val windowed_by_count :
  ?window:Psbox_engine.Time.span ->
  Psbox_engine.Timeline.t ->
  Usage.span list ->
  from:Psbox_engine.Time.t ->
  until:Psbox_engine.Time.t ->
  result
(** AppScope-style [96] kernel-activity accounting: time is cut into model
    windows (default 100 ms); each window's full energy — including wake
    and tail baselines — is divided among apps in proportion to their
    number of hardware requests (packets, commands) in the window. This is
    how activity-count models over-charge chatty apps whose co-runners
    drive the device into hot states. *)

(** {1 Online splitting}

    The live splitter is the bus-era counterpart of {!usage_split}: it
    subscribes to a shared device's rail and share feed
    ({!Psbox_kernel.System.feed}) and settles
    [power * share / total_share * dt] into per-app accumulators at every
    power transition and share change, so a query is O(apps) instead of a
    walk over the full usage trace and rail history. Over the same window
    and share trace it attributes exactly what {!usage_split} computes
    offline. *)

type live

val live : Psbox_kernel.System.feed -> from:Psbox_engine.Time.t -> live
(** Start splitting the feed's rail at time [from]: seed the shares from
    the feed's [current] (so a splitter attached mid-run starts with
    whoever holds the device, running cores or commands and frames in
    flight), then follow its [changes], which must come in time order.
    @raise Invalid_argument from a change with a negative share or one
    earlier than the last settled instant. *)

val live_read : live -> until:Psbox_engine.Time.t -> result
(** Per-app energy attributed from [from] up to [until], sorted by app. *)

val app_j : live list -> until:Psbox_engine.Time.t -> app:int -> float
(** [app]'s energy summed over the splitters, in list order, up to
    [until]: the same float additions as summing [app]'s {!live_read}
    entries, without building the lists. *)

val live_detach : live -> unit
(** Unsubscribe from the rail and the feed; totals stay readable. *)
