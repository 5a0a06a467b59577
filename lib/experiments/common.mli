(** Shared plumbing for the paper's experiments. *)

module System = Psbox_kernel.System

type job = {
  t0 : Psbox_engine.Time.t;
  t1 : Psbox_engine.Time.t;
  dur_s : float;
  rail_mj : float;  (** full rail energy over the job *)
  psbox_mj : float option;  (** virtual-meter energy, when a psbox was used *)
}

val run_job :
  System.t ->
  rail:Psbox_hw.Power_rail.t ->
  main:System.app ->
  ?psbox:Psbox_core.Psbox.t ->
  ?timeout:Psbox_engine.Time.span ->
  unit ->
  job
(** Start the system (if needed), enter the psbox (when given), run until
    the main app's tasks exit, read the meters, leave the psbox. *)

(** {1 Prior-approach attribution per hardware class} *)

val cpu_usages : System.t -> Psbox_accounting.Usage.span list
(** Finalizes the scheduler trace — call after the measurement window. *)

val accel_usages : Psbox_kernel.Accel_driver.t -> Psbox_accounting.Usage.span list

val wifi_usages : System.t -> Psbox_accounting.Usage.span list
(** Airtime spans from the NIC driver's dispatch log. *)

val attributed_mj :
  Psbox_accounting.Split.result -> app:System.app -> float

val pct : float -> float -> float
(** [pct reference x] is the signed percentage difference of [x] from
    [reference]. *)

(** {1 Value formatters}

    Every experiment renders quantities through these so the reports agree
    on precision and unit spelling. They exist for consistency, not
    abstraction: each one is a fixed [Printf] format. *)

val fmt_w : ?dp:int -> float -> string
(** Watts, [dp] decimals (default 2): ["1.40 W"]. *)

val fmt_s : float -> string
(** Seconds, 3 decimals: ["3.142 s"]. *)

val fmt_ms : ?dp:int -> ?tight:bool -> float -> string
(** Milliseconds, [dp] decimals (default 1); [tight] drops the space
    before the unit (["8.0ms"] vs ["8.0 ms"]). *)

val fmt_us : float -> string
(** Microseconds, no decimals: ["250 us"]. *)

val fmt_us_delta : float -> string
(** Signed microsecond difference: ["+250 us"]. *)

val fmt_mj : float -> string
(** Millijoules with a spaced unit: ["120 mJ"]. (Table cells use the tight
    {!Report.fmt_mj} instead.) *)

val fmt_pct1 : float -> string
(** Unsigned percentage, 1 decimal: ["3.5%"]. *)

val fmt_pct0_signed : float -> string
(** Signed percentage, no decimals: ["+42%"]. *)

val fmt_ratio : float -> string
(** Dimensionless ratio, 2 decimals: ["0.25"]. *)

val fmt_rate : unit:string -> float -> string
(** Per-second rate with a named unit: [fmt_rate ~unit:"units" 310.0] is
    ["310 units/s"]. *)

val fmt_attributed : alone:float -> float -> string
(** An attributed energy next to its delta vs the alone run:
    ["118mJ (+1.7%)"] — the fig6 table-cell shape. *)
