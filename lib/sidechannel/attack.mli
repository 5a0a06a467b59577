(** The power side-channel attacker of §2.5.

    The attacker trains once on labelled power traces (collected while the
    victim runs alone) and later classifies observed traces by nearest DTW
    distance, inferring which website the victim browser is visiting. Used
    both to demonstrate the vulnerability (attacker observes the shared rail
    or an accounting-derived share) and to show psbox closing it (attacker
    observes only its own sandboxed view). *)

type model

val train : (string * float array) list -> ?downsample:int -> ?band:int -> unit -> model
(** [train labelled] builds a 1-NN model from (label, trace) pairs. Traces
    are mean-pooled by [downsample] (default 50) and z-normalized. *)

val success_rate : model -> (string * float array) list -> float
(** Fraction of test traces classified with their true label: the label of
    the nearest training trace. @raise Invalid_argument on an empty
    model. *)
