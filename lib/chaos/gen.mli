(** Seeded random fault-schedule generation over the full
    {!Scotch_faults.Fault.kind} vocabulary.

    Deterministic per (seed, index): schedule [index] of a seed is the
    same schedule forever, independent of search order.  Same-category
    faults never overlap on one target (the injector's idempotency
    unions them and parameterized setters would last-writer-win), and
    every fault window closes by 80 % of the workload so the oracle
    judges a system that had to recover {e under} load. *)

type spec = {
  vswitches : int array;
      (** overlay pool dpids: crash/degrade/slowdown/stall targets *)
  phys : int array;  (** managed physical dpids: OFA + channel faults *)
  links : (int * int) array;  (** (dpid, port) flappable data links *)
  tenants : int array;  (** flood targets; used only when [cfg.tenancy] *)
  flood_rate : float;  (** nominal tenant-flood intensity, flows/s *)
  min_faults : int;
  max_faults : int;
  cfg : Schedule.cfg;
  workload : Schedule.workload;
}

(** [generate spec ~seed ~index] — the [index]-th trial of [seed].
    Raises [Invalid_argument] on an empty target spec or a bad fault
    count range. *)
val generate : spec -> seed:int -> index:int -> Schedule.t
