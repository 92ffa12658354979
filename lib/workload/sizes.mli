(** Flow-size distributions.  "The majority of link capacity is
    consumed by a small fraction of large flows" [1 in the paper]: the
    Pareto sampler reproduces that shape. *)

open Scotch_util

(** Fixed-shape flows. *)
val fixed : packets:int -> payload:int -> interval:float -> Rng.t -> Flow_gen.flow_spec

(** Pareto-distributed sizes in packets: shape [alpha] (heavier tail
    when smaller), minimum [min_packets], truncated at [max_packets];
    the flow sends 1000-byte packets at [pkt_rate]/s. *)
val pareto :
  ?alpha:float -> ?min_packets:int -> ?max_packets:int -> pkt_rate:float -> unit -> Rng.t ->
  Flow_gen.flow_spec
