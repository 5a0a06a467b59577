(** CFS scheduling entities.

    An entity is either a bare task or a psbox group entity — the per-core
    container for a sandboxed app's tasks ("similar to a Linux cgroup, a
    psbox has a set of scheduling entities {E}, one entity on each core",
    §4.2). A group entity keeps a collective credit (vruntime) and its own
    loan balance for the scheduling-loan mechanism. *)

type group = {
  psbox_id : int;  (** the sandboxed app's id *)
  gcore : int;
  mutable gtasks : Task.t list;  (** the app's tasks assigned to this core *)
  mutable gcurr : Task.t;
      (** inner task currently running; {!Task.none} when none is *)
  mutable loan : float;  (** vruntime borrowed during the live balloon *)
}

type kind = ETask of Task.t | EGroup of group

type t = {
  eid : int;
  kind : kind;
  weight : float;
  vruntime : Task.vclock;  (** its own cell, never shared with its task *)
  mutable on_rq : bool;
}

val none : t
(** A placeholder entity, never queued: what {!Cfs} answers for "no
    entity" (an idle core, an empty queue) without allocating an option.
    Test with [e == none]. *)

val reset_ids : unit -> unit
(** Restart eid numbering from 1 in the current domain — see
    {!Task.reset_ids}. *)

val of_task : Task.t -> t

val group : psbox_id:int -> core:int -> ?weight:float -> unit -> t

val is_group : t -> bool

val app_of : t -> int
(** The app this entity belongs to (task's app or the group's psbox app). *)

val runnable : t -> bool
(** A task entity is runnable iff its task is; a group entity is runnable
    iff any of its tasks is. (A group inside a live balloon is forced to run
    even when empty — that is the scheduler's decision, not the entity's.) *)

val group_pick : group -> Task.t
(** The runnable member task with the least vruntime (the first in list
    order on a tie), or {!Task.none} if no member is runnable. *)

val pp : Format.formatter -> t -> unit
