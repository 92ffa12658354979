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

(* Liveness, read by plain recursive loops so that grading a clean rule
   allocates nothing. *)
let rec device_live dpid = function
  | [] -> false
  | (n : S.node) :: rest -> if n.S.dpid = dpid then not n.S.failed else device_live dpid rest

let rec overlay_alive dpid = function
  | [] -> true
  | (d, alive, _) :: rest -> if d = dpid then alive else overlay_alive dpid rest

(** Liveness of a dpid as the checker sees it: device not failed, and —
    when it is an overlay vswitch the controller tracks — marked alive
    in the overlay bookkeeping. *)
let peer_live snap dpid =
  device_live dpid snap.S.nodes
  && match snap.S.overlay with None -> true | Some ov -> overlay_alive dpid ov.S.vswitches

(** [output_clean snap port_id ports]: output on [port_id] earns no
    finding — a known port whose link is up and which leads to a host,
    to the outside, or to a live switch.  Allocates nothing. *)
let rec output_clean snap port_id = function
  | [] -> false
  | (p : S.port) :: rest ->
    if p.S.port_id <> port_id then output_clean snap port_id rest
    else (
      match (p.S.link_up, p.S.endpoint) with
      | Some true, S.To_switch { peer; _ } -> peer_live snap peer
      | Some true, (S.To_host _ | S.Opaque) -> true
      | _, _ -> false)

(** Diagnostics for one [Output port] target.  [dead_severity] grades a
    dead endpoint: {e rules} pointing at a dead switch are warnings
    (idle timeouts reclaim them; §5.6 rehashing reroutes the flows),
    while {e group buckets} doing so are errors (groups never expire —
    only the failover rebalance can fix them). *)
let check_output snap (n : S.node) ~invariant ~dead_severity ?table_id ?rule port_id =
  if output_clean snap port_id n.S.ports then []
  else
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
