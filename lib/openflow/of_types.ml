(** Core OpenFlow identifiers and constants (OpenFlow 1.3 subset — the
    version the paper's Pica8 switch requires, including multiple flow
    tables and group tables). *)

(** Switch datapath identifier. *)
type datapath_id = int

(** Port numbers.  Physical/tunnel ports are small positive integers;
    reserved ports follow the OpenFlow 1.3 encoding. *)
module Port_no = struct
  type t =
    | Physical of int
    | In_port        (* send back out the ingress port *)
    | Controller     (* forward to controller as Packet-In *)
    | All            (* flood all ports except ingress *)
    | Local          (* switch-local stack *)
    | Any            (* wildcard in requests/deletes *)

  let max_physical = 0xFFFFFF00

  let to_int = function
    | Physical p -> p
    | In_port -> 0xFFFFFFF8
    | All -> 0xFFFFFFFC
    | Controller -> 0xFFFFFFFD
    | Local -> 0xFFFFFFFE
    | Any -> 0xFFFFFFFF

  let of_int = function
    | 0xFFFFFFF8 -> In_port
    | 0xFFFFFFFC -> All
    | 0xFFFFFFFD -> Controller
    | 0xFFFFFFFE -> Local
    | 0xFFFFFFFF -> Any
    | p when p >= 0 && p < max_physical -> Physical p
    | p -> invalid_arg (Printf.sprintf "Port_no.of_int: %d" p)

  let equal a b = a = b
end

(** Flow-table ids: OpenFlow 1.3 pipelines have tables 0..n; Scotch's
    physical-switch pipeline uses table 0 (ingress tagging) and table 1
    (load-balancing group), §5.2. *)
type table_id = int

type group_id = int

(** Transaction ids correlate controller requests and switch replies. *)
type xid = int

(** Buffer ids: we always send full packets (the paper configures
    vswitches to "forward the entire packet to the controller"), so
    [no_buffer] is the only value used. *)
let no_buffer = 0xFFFFFFFF

(** Cookie: opaque controller-chosen id on flow rules; Scotch uses it to
    tag overlay (green) vs per-flow physical (red) rules. *)
type cookie = int64

let cookie_none = 0L

(** Reason codes carried in Packet-In messages. *)
module Packet_in_reason = struct
  type t =
    | No_match     (* table miss *)
    | Action       (* explicit output to CONTROLLER *)

  let to_int = function No_match -> 0 | Action -> 1

  let of_int = function
    | 0 -> No_match
    | 1 -> Action
    | n -> invalid_arg (Printf.sprintf "Packet_in_reason.of_int: %d" n)

  let pp fmt t =
    Format.pp_print_string fmt
      (match t with No_match -> "NO_MATCH" | Action -> "ACTION")
end
