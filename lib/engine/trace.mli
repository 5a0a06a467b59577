(** History logs.

    A log is an append-only record of what a subsystem did (who ran when,
    which commands completed, how long wakeups waited). It records nothing,
    and allocates nothing, until it is {!arm}ed: a machine that nobody reads
    the history of keeps no history. Reading a log that was never armed is a
    programming error and raises, rather than returning an empty history
    that looks like an idle machine. *)

type 'a t

val create : reader:string -> arm_with:string -> 'a t
(** An unarmed log. [reader] names the accessor that exposes it and
    [arm_with] the call that arms it; both appear in the error raised by
    reading the log unarmed. *)

val arm : 'a t -> unit
(** Start recording. Entries recorded before arming are not kept. *)

val armed : 'a t -> bool
(** Whether {!record} keeps entries. Callers guard entry construction with
    it, so an unarmed log costs no allocation. *)

val record : 'a t -> 'a -> unit
(** Append an entry; a no-op while the log is unarmed. *)

val to_list : 'a t -> 'a list
(** Entries, oldest first.
    @raise Invalid_argument if the log was never armed, naming the reader
    and the call that arms it. *)

(** {1 Interval spans} *)

type 'a span = { start : Time.t; stop : Time.t; tag : 'a }

val to_spans : 'a span t -> 'a span list
(** Recorded spans ordered by start time (ties by stop time, then most
    recently recorded first).
    @raise Invalid_argument if the log was never armed. *)

val overlaps : 'a span -> 'a span -> bool
(** Whether two spans intersect for a strictly positive duration. *)
