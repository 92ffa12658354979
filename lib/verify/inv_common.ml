(** Helpers shared by the per-invariant analyzers: rule subjects,
    liveness as the checker defines it, and the output-port grading
    every local invariant leans on. *)

open Scotch_openflow
open Scotch_switch
module D = Diagnostic
module S = Snapshot

(* Rule-slot identity within a table: {!Flow_table} replaces on equal
   (priority, match). *)
type slot = int * Of_match.t

let slot_of (r : Flow_table.rule) = (r.Flow_table.priority, r.Flow_table.match_)

let subject (r : Flow_table.rule) =
  D.Rule { priority = r.Flow_table.priority; match_ = r.Flow_table.match_ }

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
