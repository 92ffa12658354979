(** Flow-size distributions.

    "Measurement studies have shown that the majority of link capacity
    is consumed by a small fraction of large flows" [1 in the paper] —
    the Pareto mice/elephants mix below reproduces that shape and drives
    the large-flow migration experiments. *)

open Scotch_util

(** Fixed-shape flows. *)
let fixed ~packets ~payload ~interval : Rng.t -> Flow_gen.flow_spec =
 fun _ -> { Flow_gen.packets; payload; interval }

(** Pareto-distributed flow sizes in packets: shape [alpha] (heavier
    tail for smaller alpha), minimum [min_packets], truncated at
    [max_packets].  Packets are 1000 bytes and the flow sends at
    [pkt_rate] packets/second. *)
let pareto ?(alpha = 1.2) ?(min_packets = 2) ?(max_packets = 100_000) ~pkt_rate () :
    Rng.t -> Flow_gen.flow_spec =
 fun rng ->
  let size =
    Rng.pareto rng ~shape:alpha ~scale:(float_of_int min_packets)
    |> Float.round |> int_of_float
    |> Stdlib.min max_packets
  in
  { Flow_gen.packets = size; payload = 1000; interval = 1.0 /. pkt_rate }
