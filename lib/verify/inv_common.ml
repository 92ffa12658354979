(** Helpers shared by the per-invariant analyzers: rule subjects,
    exact-5-tuple extraction, liveness as the checker defines it, and
    the output-port grading every local invariant leans on. *)

open Scotch_openflow
open Scotch_packet
open Scotch_switch
module D = Diagnostic
module S = Snapshot

(* Rule-slot identity within a table: {!Flow_table} replaces on equal
   (priority, match). *)
type slot = int * Of_match.t

let slot_of (r : Flow_table.rule) = (r.Flow_table.priority, r.Flow_table.match_)

let subject (r : Flow_table.rule) =
  D.Rule { priority = r.Flow_table.priority; match_ = r.Flow_table.match_ }

(** The exact 5-tuple a match pins down, when it pins one down. *)
let flow_key_of_match (m : Of_match.t) =
  match (m.Of_match.ip_src, m.Of_match.ip_dst, m.Of_match.ip_proto) with
  | Some s, Some d, Some proto
    when s.Of_match.mask = Ipv4_addr.mask32 && d.Of_match.mask = Ipv4_addr.mask32 ->
    Some
      (Flow_key.make
         ~ip_src:(Ipv4_addr.of_int s.Of_match.value)
         ~ip_dst:(Ipv4_addr.of_int d.Of_match.value)
         ~proto ?l4_src:m.Of_match.l4_src ?l4_dst:m.Of_match.l4_dst ())
  | _ -> None

(** Liveness of a dpid as the checker sees it: device not failed, and —
    when it is an overlay vswitch the controller tracks — marked alive
    in the overlay bookkeeping. *)
let peer_live snap dpid =
  let device_ok = match S.node snap dpid with Some n -> not n.S.failed | None -> false in
  let overlay_ok =
    match snap.S.overlay with
    | None -> true
    | Some ov -> (
      match List.find_opt (fun (d, _, _) -> d = dpid) ov.S.vswitches with
      | Some (_, alive, _) -> alive
      | None -> true)
  in
  device_ok && overlay_ok

(** Diagnostics for one [Output port] target.  [dead_severity] grades a
    dead endpoint: {e rules} pointing at a dead switch are warnings
    (idle timeouts reclaim them; §5.6 rehashing reroutes the flows),
    while {e group buckets} doing so are errors (groups never expire —
    only the failover rebalance can fix them). *)
let check_output snap (n : S.node) ~invariant ~dead_severity ?table_id ?rule port_id =
  let mk = D.make ~dpid:n.S.dpid ?table_id ?rule ~invariant in
  match S.find_port n port_id with
  | None -> [ mk ~severity:D.Error (Printf.sprintf "output to unknown port %d" port_id) ]
  | Some p ->
    let link =
      match (p.S.link_up, p.S.endpoint) with
      | None, _ | _, S.Disconnected ->
        [ mk ~severity:D.Error
            (Printf.sprintf "output to port %d, which has no outgoing link" port_id) ]
      | Some false, _ ->
        [ mk ~severity:D.Warning
            (Printf.sprintf "output to port %d, whose link is administratively down" port_id) ]
      | Some true, _ -> []
    in
    let endpoint =
      match p.S.endpoint with
      | S.To_switch { peer; _ } when not (peer_live snap peer) ->
        [ mk ~severity:dead_severity
            (match p.S.tunnel with
            | Some tid ->
              Printf.sprintf "port %d is tunnel %d to dead switch %d" port_id tid peer
            | None -> Printf.sprintf "port %d leads to dead switch %d" port_id peer) ]
      | _ -> []
    in
    link @ endpoint

let covers_field hi lo =
  match (hi, lo) with
  | None, _ -> true
  | Some _, None -> false
  | Some a, Some b -> a = b

let covers_masked hi lo =
  match (hi, lo) with
  | None, _ -> true
  | Some _, None -> false
  | Some (a : Of_match.masked), Some (b : Of_match.masked) ->
    a.Of_match.mask land b.Of_match.mask = a.Of_match.mask
    && a.Of_match.value land a.Of_match.mask = b.Of_match.value land a.Of_match.mask

(** [covers hi lo]: every packet matching [lo] also matches [hi] —
    each constraint of [hi] is implied by [lo]'s constraints. *)
let covers (hi : Of_match.t) (lo : Of_match.t) =
  covers_field hi.Of_match.in_port lo.Of_match.in_port
  && covers_field hi.Of_match.eth_type lo.Of_match.eth_type
  && covers_masked hi.Of_match.ip_src lo.Of_match.ip_src
  && covers_masked hi.Of_match.ip_dst lo.Of_match.ip_dst
  && covers_field hi.Of_match.ip_proto lo.Of_match.ip_proto
  && covers_field hi.Of_match.l4_src lo.Of_match.l4_src
  && covers_field hi.Of_match.l4_dst lo.Of_match.l4_dst
  && covers_field hi.Of_match.mpls_label lo.Of_match.mpls_label
  && covers_field hi.Of_match.gre_key lo.Of_match.gre_key
  && covers_field hi.Of_match.tunnel_id lo.Of_match.tunnel_id
