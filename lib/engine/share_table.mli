(** Per-app device shares in flat storage.

    The observers that split a device's power among its users (the live
    splitters, the joule audit) settle energy over the current shares on
    every power transition and every share change. This table keeps the
    shares in an app-indexed float array and the apps holding one in an int
    array, so a settle loop over them allocates nothing.

    The apps are visited in one fixed order: the order in which an
    int-keyed [Hashtbl.t] made by [Hashtbl.create n] (n <= 16) with
    [replace]/[remove] visits its bindings — hash bucket ascending, most
    recently added first within a bucket, the buckets doubling once the
    table holds more than twice as many bindings. Share totals and the
    counters the audit prints are float sums in this order, and recorded
    reports depend on them to the last bit; the hash-table oracles in
    [test/ref_split.ml] and [test/ref_audit.ml] check it. A table that
    gives every app the same share is just that visit order over a set of
    apps: the kernel's drivers and quotas walk their per-app state so, to
    break ties as the tables they once kept did. *)

type t = {
  mutable share : float array;  (** by app; 0 when the app holds none *)
  mutable apps : int array;  (** apps holding a share, [0 .. n-1] in order *)
  mutable n : int;
  mutable buckets : int;
}
(** Read the fields directly in hot loops (a float returned from a
    function is boxed); change the table only through {!set} and
    {!remove}. *)

val create : unit -> t

type change = { mutable at : Time.t; mutable app : int; mutable share : float }
(** [app]'s share of a device is [share] from [at] on; 0 means it holds
    none. What a share counts is the publisher's: running cores for the
    scheduler, commands or frames in flight for the device drivers.

    Each publisher keeps one record and overwrites it for every change, so
    publishing allocates no record. A record is valid only while it is
    being delivered: a subscriber copies the fields it needs and never
    keeps the record itself. *)

val set : t -> app:int -> float -> unit
(** Give [app] a share (the caller decides what counts as one). An app that
    held none joins the visit order; one that did keeps its place.
    @raise Invalid_argument on a negative app id or a share that is not
    positive. *)

val remove : t -> app:int -> unit
(** Drop [app]'s share; no-op if it holds none. *)
