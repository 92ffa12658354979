(** OpenFlow message types exchanged between switches and the
    controller: the subset Scotch sends (flow add/delete, select-group
    modification, Packet-In/Out, flow statistics for elephant
    detection, group descriptions and sampled telemetry, barriers, and
    Echo for vswitch liveness, §5.6). *)

open Of_types

(** {1 Flow modification} *)

module Flow_mod = struct
  type command = Add | Delete

  type t = {
    command : command;
    table_id : table_id;
    priority : int;
    match_ : Of_match.t;
    instructions : Of_action.instructions;
    idle_timeout : float;  (* seconds; 0 = none *)
    hard_timeout : float;  (* seconds; 0 = none *)
    cookie : cookie;
  }

  let add ?(table_id = 0) ?(priority = 1) ?(idle_timeout = 0.0) ?(hard_timeout = 0.0)
      ?(cookie = cookie_none) ~match_ ~instructions () =
    { command = Add; table_id; priority; match_; instructions; idle_timeout; hard_timeout;
      cookie }

  let delete ?(table_id = 0) ~match_ () =
    { command = Delete; table_id; priority = 0; match_; instructions = []; idle_timeout = 0.0;
      hard_timeout = 0.0; cookie = cookie_none }
end

(** {1 Group modification (select groups for §5.1 load balancing)} *)

module Group_mod = struct
  type bucket = { actions : Of_action.t list }

  type command = Add | Modify | Delete

  type t = {
    command : command;
    group_id : group_id;
    buckets : bucket list;
  }

  let bucket actions = { actions }

  let add_select ~group_id ~buckets = { command = Add; group_id; buckets }

  let modify_select ~group_id ~buckets = { command = Modify; group_id; buckets }

  let delete ~group_id = { command = Delete; group_id; buckets = [] }
end

(** {1 Packet-In / Packet-Out} *)

module Packet_in = struct
  type t = {
    buffer_id : int;               (* always [no_buffer]: full packets *)
    reason : Packet_in_reason.t;
    table_id : table_id;
    in_port : int;
    tunnel_id : int option;        (* metadata: tunnel the packet arrived on *)
    packet : Scotch_packet.Packet.t;
  }

  let make ?tunnel_id ~reason ~in_port packet =
    { buffer_id = no_buffer; reason; table_id = 0; in_port; tunnel_id; packet }
end

module Packet_out = struct
  type t = {
    in_port : int;
    actions : Of_action.t list;
    packet : Scotch_packet.Packet.t;
  }
end

(** {1 Statistics (multipart) — flow stats drive large-flow detection
    (§5.3: "the controller sends the flow-stats query messages to the
    vswitches, and collects the flow stats including packet counts")} *)

module Stats = struct
  type flow_stats_request = {
    table_id : table_id;  (* [all_tables] reads every table *)
    match_ : Of_match.t;
  }

  let all_tables = 0xFF

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
      table actually holds — the anti-entropy reconciler diffs this
      against controller intent. *)
  type group_desc = {
    group_id : group_id;
    buckets : Group_mod.bucket list;
  }

  type group_stats_reply = group_desc list
end

(** {1 Telemetry (multipart) — the sampled-measurement alternative to
    exhaustive flow-stats polling: a vswitch's sampler drains one
    bounded top-k window per poll, so the reply carries at most [k]
    records however many flows the switch holds} *)

module Telemetry = struct
  type record = {
    key : Scotch_packet.Flow_key.t;
    sampled : int; (* coin hits for this flow within the window *)
  }

  type report = {
    rate : float;   (* sampling probability in force this window *)
    window : float; (* seconds covered by the window *)
    seen : int;     (* duty packets offered to the sampler *)
    sampled : int;  (* total coin hits *)
    records : record list; (* heaviest first *)
  }

  let empty = { rate = 0.0; window = 0.0; seen = 0; sampled = 0; records = [] }
end

(** {1 The message sum type} *)

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

let make ~xid payload = { xid; payload }

let kind_name t =
  match t.payload with
  | Echo_request -> "ECHO_REQUEST"
  | Echo_reply -> "ECHO_REPLY"
  | Flow_mod _ -> "FLOW_MOD"
  | Group_mod _ -> "GROUP_MOD"
  | Packet_in _ -> "PACKET_IN"
  | Packet_out _ -> "PACKET_OUT"
  | Flow_stats_request _ -> "FLOW_STATS_REQUEST"
  | Flow_stats_reply _ -> "FLOW_STATS_REPLY"
  | Group_stats_request -> "GROUP_STATS_REQUEST"
  | Group_stats_reply _ -> "GROUP_STATS_REPLY"
  | Telemetry_request -> "TELEMETRY_REQUEST"
  | Telemetry_reply _ -> "TELEMETRY_REPLY"
  | Barrier_request -> "BARRIER_REQUEST"
  | Barrier_reply -> "BARRIER_REPLY"
  | Error _ -> "ERROR"
