(** Ablations of the design choices DESIGN.md calls out.

    - {b Cost confinement} (scheduling loans + idle billing on the CPU;
      drain/serve billing on accelerators): with it, sandboxing one app
      leaves its siblings' throughput intact; without it, the sandboxed
      app's exclusive balloons are free and the siblings pay.
    - {b Power-state virtualization}: with it, a psbox observes the same
      power state at every entry; without it, the hardware state left by
      other apps lingers into the observation.
    - {b Dispatch window}: the asynchronous command-queue depth is what
      makes request boundaries blurry (Figure 3(b)); with a window of 1
      there is no overlap to entangle. *)

type confinement = {
  ab_sibling_delta_on : float;  (** sibling throughput change, confinement on (%) *)
  ab_sibling_delta_off : float;  (** same with confinement ablated (%) *)
}

type vstate = {
  ab_gap_on_pct : float;
      (** |cold-entry − hot-entry| observed energy gap with virtualization (%) *)
  ab_gap_off_pct : float;  (** same with virtualization ablated (%) *)
}

type window = (int * float) list
(** (dispatch window, observed command overlap in ms). *)

val cpu_confinement : ?seed:int -> unit -> confinement
val state_virtualization : ?seed:int -> unit -> vstate
val run : ?seed:int -> unit -> Report.t * (confinement * confinement * vstate * window)
