(** OpenFlow messages exchanged between switches and the controller:
    the subset Scotch sends (flow add/delete, select-group
    modification, Packet-In/Out, flow statistics for elephant
    detection, group descriptions and sampled telemetry, barriers, Echo
    for vswitch liveness — §5.1, §5.3, §5.6 of the paper). *)

open Of_types

module Flow_mod : sig
  type command = Add | Delete

  type t = {
    command : command;
    table_id : table_id;
    priority : int;
    match_ : Of_match.t;
    instructions : Of_action.instructions;
    idle_timeout : float; (** seconds; 0 = none *)
    hard_timeout : float;
    cookie : cookie;
  }

  val add :
    ?table_id:table_id -> ?priority:int -> ?idle_timeout:float -> ?hard_timeout:float ->
    ?cookie:cookie -> match_:Of_match.t -> instructions:Of_action.instructions -> unit -> t

  val delete : ?table_id:table_id -> match_:Of_match.t -> unit -> t
end

(** Group modification — select groups implement §5.1's load
    balancing. *)
module Group_mod : sig
  (** One bucket: the actions a flow hashed onto it executes.  Every
      bucket of a group weighs the same. *)
  type bucket = { actions : Of_action.t list }

  type command = Add | Modify | Delete

  type t = {
    command : command;
    group_id : group_id;
    buckets : bucket list;
  }

  val bucket : Of_action.t list -> bucket
  val add_select : group_id:group_id -> buckets:bucket list -> t
  val modify_select : group_id:group_id -> buckets:bucket list -> t
  val delete : group_id:group_id -> t
end

module Packet_in : sig
  type t = {
    buffer_id : int;              (** always [no_buffer]: full packets *)
    reason : Packet_in_reason.t;
    table_id : table_id;
    in_port : int;
    tunnel_id : int option;       (** tunnel the packet arrived on *)
    packet : Scotch_packet.Packet.t;
  }

  val make :
    ?tunnel_id:int -> reason:Packet_in_reason.t -> in_port:int -> Scotch_packet.Packet.t -> t
end

module Packet_out : sig
  type t = {
    in_port : int;
    actions : Of_action.t list;
    packet : Scotch_packet.Packet.t;
  }
end

(** Statistics (multipart): flow stats drive large-flow detection
    (§5.3). *)
module Stats : sig
  type flow_stats_request = {
    table_id : table_id; (** {!all_tables} reads every table *)
    match_ : Of_match.t;
  }

  (** The table id that selects every table (OFPTT_ALL). *)
  val all_tables : table_id

  type flow_stat = {
    table_id : table_id;
    priority : int;
    match_ : Of_match.t;
    packet_count : int;
    byte_count : int;
    duration : float;
    cookie : cookie;
  }

  type flow_stats_reply = flow_stat list

  (** Group description (OFPMP_GROUP_DESC): what the switch's group
      table actually holds — diffed against controller intent by the
      anti-entropy reconciler. *)
  type group_desc = {
    group_id : group_id;
    buckets : Group_mod.bucket list;
  }

  type group_stats_reply = group_desc list
end

(** Telemetry (multipart): the sampled-measurement alternative to
    exhaustive flow-stats polling — one bounded top-k window per poll,
    at most [k] records however many flows the switch holds. *)
module Telemetry : sig
  type record = {
    key : Scotch_packet.Flow_key.t;
    sampled : int; (** coin hits for this flow within the window *)
  }

  type report = {
    rate : float;   (** sampling probability in force this window *)
    window : float; (** seconds covered by the window *)
    seen : int;     (** duty packets offered to the sampler *)
    sampled : int;  (** total coin hits *)
    records : record list; (** heaviest first *)
  }

  (** What a switch with no sampler attached replies. *)
  val empty : report
end

type payload =
  | Echo_request
  | Echo_reply
  | Flow_mod of Flow_mod.t
  | Group_mod of Group_mod.t
  | Packet_in of Packet_in.t
  | Packet_out of Packet_out.t
  | Flow_stats_request of Stats.flow_stats_request
  | Flow_stats_reply of Stats.flow_stats_reply
  | Group_stats_request
  | Group_stats_reply of Stats.group_stats_reply
  | Telemetry_request
  | Telemetry_reply of Telemetry.report
  | Barrier_request
  | Barrier_reply
  | Error of string

type t = { xid : xid; payload : payload }

val make : xid:xid -> payload -> t
val kind_name : t -> string
