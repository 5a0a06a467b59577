(** Dynamic voltage/frequency scaling.

    A device exposes a table of operating performance points (OPPs) and a
    governor that moves among them. The ondemand governor jumps to the top
    OPP under load and steps down one OPP per idle sampling period — this
    produces the "lingering power state" of the paper's Figure 3(c): a
    workload that starts right after a busy period runs at a higher clock
    (and power) than one that starts from idle.

    The DVFS state is exactly what psbox's power-state virtualization saves
    and restores per sandbox (an operating/idle state in the paper's
    taxonomy). *)

type opp = {
  freq_mhz : int;
  core_w : float;  (** dynamic watts per busy execution unit at this OPP *)
  uncore_w : float;  (** shared (uncore/clock-tree) watts while any unit is busy *)
}

type governor =
  | Ondemand of { up_threshold : float; sampling : Psbox_engine.Time.span }
      (** Jump to the highest OPP when utilization over the last sampling
          period is at least [up_threshold]; otherwise step down one OPP. *)
  | Performance  (** Pin to the highest OPP. *)
  | Userspace  (** Never move on its own; only {!set_opp} changes it. *)

type change = {
  at : Psbox_engine.Time.t;
  index_before : int;
  index_after : int;
  opp : opp;  (** the OPP now in effect *)
}
(** One OPP move, published on {!changes}. *)

type t

val create :
  Psbox_engine.Sim.t ->
  ?name:string ->
  ?activity:unit Psbox_engine.Bus.t ->
  opps:opp array ->
  governor:governor ->
  get_util:(unit -> float) ->
  unit ->
  t
(** [get_util] must return the device utilization (0..1) accumulated since
    the previous call; the ondemand governor samples it on the fixed grid
    [creation + k*sampling]. Whenever the OPP index moves, a {!change} is
    published on {!changes} (the owner subscribes to update its rail). The
    initial OPP is the lowest (or highest for [Performance]); setting it
    publishes nothing.

    Sampling is demand-armed: a sample that reads zero utilization with the
    device already at the bottom OPP {e parks} the governor instead of
    re-arming, so an idle device costs no simulator events. [?activity] is
    the un-parking signal — the owner publishes on it at each idle-to-busy
    edge; {!set_opp} raising the OPP and {!thaw} also unpark. An unpark
    discards the idle stretch from the utilization window and resumes on
    the original sampling grid.

    [?name] (default ["dvfs"]) labels the instance in telemetry: OPP moves
    count under [dvfs.<name>.transitions], governor samples under
    [sim.events.dvfs.<name>], and traced transitions appear as a lane
    of the ["hw.dvfs"] track with a [<name>.freq_mhz] counter timeline. *)

val name : t -> string

val changes : t -> change Psbox_engine.Bus.t
(** The OPP-change bus. Subscribers run synchronously, in subscription
    order, after the index has moved. *)

val opp_index : t -> int
val current : t -> opp
val opps : t -> opp array

val set_opp : t -> int -> unit
(** Force an OPP (power-state virtualization and [Userspace] control). Also
    resets the ondemand decay so the state lingers from this point. *)

val max_index : t -> int

val set_ceiling : t -> int -> unit
(** Clamp the reachable OPP range to [0..i] (power-budget bias): the
    governor's top jump and {!set_opp} both saturate at the ceiling, and a
    current OPP above it is stepped down immediately. Defaults to
    {!max_index}, which changes nothing. *)

val ceiling : t -> int

val freeze : t -> unit
(** Suspend the governor's own decisions (e.g. while a psbox balloon holds
    the device and drives a private frequency trajectory). {!set_opp} still
    works. Nested freezes are not counted; one {!thaw} re-enables. *)

val thaw : t -> unit

val frozen : t -> bool

val stop : t -> unit
(** Cancel the periodic governor event (end of simulation). *)
