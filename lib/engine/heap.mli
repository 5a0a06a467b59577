(** A mutable binary min-heap.

    Used as the timing wheel's per-granule ready queue ({!Wheel}). Elements
    are ordered by a user-supplied comparison fixed at creation time. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp]. *)

val size : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** [peek h] is the minimum element without removing it. *)

val pop : 'a t -> 'a option
(** [pop h] removes and returns the minimum element. *)

val top : 'a t -> 'a
(** Allocation-free {!peek}: the minimum element. Undefined (may raise or
    return garbage) on an empty heap — callers must check {!size} first. *)

val drop : 'a t -> unit
(** Allocation-free {!pop} that discards the minimum element. Must only be
    called on a non-empty heap. *)

val clear : 'a t -> unit

val filter_in_place : 'a t -> keep:('a -> bool) -> unit
(** [filter_in_place h ~keep] drops every element for which [keep] is false
    and restores the heap property, in O(n). Used by the event queue to reap
    cancelled-event tombstones in bulk. *)
