(** Core OpenFlow identifiers and constants (OpenFlow 1.3 subset — the
    version the paper's Pica8 switch requires, with multiple flow
    tables and group tables). *)

type datapath_id = int

(** Port numbers: physical/tunnel ports are small positive integers;
    reserved ports follow the OpenFlow 1.3 encoding. *)
module Port_no : sig
  type t =
    | Physical of int
    | In_port      (** send back out the ingress port *)
    | Controller   (** forward to the controller as a Packet-In *)
    | All          (** flood all ports except ingress *)
    | Local
    | Any

  val to_int : t -> int

  (** Raises [Invalid_argument] on reserved-range values with no
      meaning. *)
  val of_int : int -> t

  val equal : t -> t -> bool
end

type table_id = int
type group_id = int

(** Transaction ids correlate controller requests and switch replies. *)
type xid = int

(** We always send full packets ("forward the entire packet to the
    controller", §4.2), so this is the only buffer id used. *)
val no_buffer : int

(** Opaque controller-chosen tag on flow rules; Scotch uses it to tell
    overlay (green) rules from per-flow physical (red) rules. *)
type cookie = int64

val cookie_none : cookie

module Packet_in_reason : sig
  type t = No_match | Action

  val to_int : t -> int
  val of_int : int -> t
  val pp : Format.formatter -> t -> unit
end
