(** Deterministic pseudo-random numbers.

    A small splittable generator (SplitMix64 core) so every scenario is
    reproducible from a single seed and independent subsystems can draw from
    independent streams. *)

type t

val create : seed:int -> t

val split : t -> t
(** [split rng] derives an independent stream; the parent stream advances. *)

val derive : seed:int -> int -> int
(** [derive ~seed i] is the [i]-th child seed of [seed], computed purely
    from [(seed, i)] (SplitMix jump + remix) — no parent state advances, so
    children can be derived in any order, from any domain, and always
    agree. This is how a fleet seed fans out into per-device seeds.
    @raise Invalid_argument if [i < 0]. *)

val int : t -> int -> int
(** [int rng n] is uniform in [\[0, n)]. @raise Invalid_argument if [n <= 0]. *)

val float : t -> float -> float
(** [float rng x] is uniform in [\[0, x)]. *)

val bool : t -> bool

val uniform : t -> lo:float -> hi:float -> float

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normally distributed (Box-Muller). *)

val pick : t -> 'a array -> 'a
(** Uniformly pick an array element. @raise Invalid_argument on [[||]]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
