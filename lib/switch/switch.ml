(** An OpenFlow switch: data-plane pipeline + {!Ofa} control agent.

    The same implementation models hardware switches and Open vSwitches;
    only the {!Profile} differs.  The data plane is fast (profile pps,
    microsecond latency); the control path is slow (the OFA's queues).

    Ports are plain integers.  A port may be a {e tunnel endpoint}: on
    output the packet is MPLS-encapsulated with the tunnel label, and on
    input the label is stripped and exposed to the pipeline as
    [tunnel_id] metadata — this is how the Scotch overlay rides the data
    plane without touching any OFA (§4.1). *)

open Scotch_openflow
open Scotch_packet
open Scotch_util

type port_kind = Normal | Tunnel of int (* tunnel id *)

type port = {
  kind : port_kind;
  out : Scotch_sim.Link.t option;
  tunnel_id : int option; (* [Some tid] on a [Tunnel tid] port, made once *)
}

let port kind out =
  { kind; out; tunnel_id = (match kind with Tunnel tid -> Some tid | Normal -> None) }

(** A dataplane state change, as seen by an {!set_on_update} observer.
    Table events carry the applied rule delta (sourced from
    {!Flow_table.set_on_change}, so capacity sweeps are covered too) —
    an observer tracking a big reactive table never has to re-read it.
    For groups and liveness the observer reads the new state through
    the normal accessors ([group_table], [ports_snapshot]). *)
type update_event =
  | Table_changed of {
      table_id : int;
      added : Flow_table.rule list;
      removed : Flow_table.rule list;
    }
  | Groups_changed        (* the group table changed *)
  | Liveness_changed of bool (* switch failed (true) or revived (false) *)

type counters = {
  mutable rx : int;
  mutable tx : int;
  mutable dropped_blocked : int;   (* datapath stalled by TCAM writes *)
  mutable dropped_capacity : int;  (* datapath pps exceeded *)
  mutable dropped_no_rule : int;   (* table miss with no miss rule *)
  mutable dropped_action : int;    (* missing group / unconnected port *)
}

type t = {
  engine : Scotch_sim.Engine.t;
  dpid : Of_types.datapath_id;
  name : string;
  profile : Profile.t;
  tables : Flow_table.t array;
  groups : Group_table.t;
  ports : (int, port) Hashtbl.t;
  mutable ofa : Ofa.t option; (* set at creation; option breaks the cycle *)
  dp_bucket : Token_bucket.t;
  mutable dp_blocked_until : float;
  mutable failed : bool; (* failure injection: data and control planes dead *)
  counters : counters;
  mutable sampler : Scotch_telemetry.Sampler.t option; (* §5.3 sampled telemetry tap *)
  mutable on_update : (update_event -> unit) option; (* verifier tap *)
  hot_miss : Scotch_obs.Obs.hot_site; (* trace decimation for dp.miss *)
  hot_punt : Scotch_obs.Obs.hot_site; (* trace decimation for dp.punt *)
  egress : Scotch_sim.Egress.t; (* sends waiting out [forward_latency] *)
}

let ofa t = Option.get t.ofa

let now t = Scotch_sim.Engine.now t.engine

let notify_update t ev = match t.on_update with None -> () | Some f -> f ev

(* ------------------------------------------------------------------ *)
(* Output path *)

let drop_action t = t.counters.dropped_action <- t.counters.dropped_action + 1

let transmit t (port : port) pkt =
  match port.out with
  | None -> drop_action t
  | Some _ as out ->
    let pkt =
      match port.kind with
      | Normal -> pkt
      | Tunnel tid -> Packet.encap_tunnel ~tunnel_id:tid pkt
    in
    t.counters.tx <- t.counters.tx + 1;
    Scotch_sim.Egress.send t.egress out pkt

(* ------------------------------------------------------------------ *)
(* Pipeline *)

module P = Pipeline.Make (struct
  type nonrec t = t

  let lookup t ~table_id ~in_port ~tunnel_id pkt =
    if table_id >= Array.length t.tables then Flow_table.no_rule
    else Flow_table.lookup t.tables.(table_id) ~now:(now t) ~in_port ~tunnel_id pkt

  let emit t pid pkt =
    match Hashtbl.find t.ports pid with
    | port -> transmit t port pkt
    | exception Not_found -> drop_action t

  let flood t ~in_port pkt =
    Hashtbl.iter
      (fun pid port -> if pid <> in_port && port.kind = Normal then transmit t port pkt)
      t.ports

  (* the start of the packet-in lifecycle: a data-plane miss (or
     explicit punt) hands the packet to the slow path.  These fire per
     missed packet, so the trace row is decimated per site. *)
  let to_controller t ~in_port ~tunnel_id reason pkt =
    if Scotch_obs.Obs.is_enabled () then begin
      let name, site =
        match reason with
        | Of_types.Packet_in_reason.No_match -> ("dp.miss", t.hot_miss)
        | _ -> ("dp.punt", t.hot_punt)
      in
      if Scotch_obs.Obs.hot_keep site then
        Scotch_obs.Obs.instant ~name ~cat:"switch" ~ts:(now t) ~tid:t.dpid ~args:[]
    end;
    Ofa.submit_packet_in (ofa t) { Ofa.in_port; tunnel_id; reason; packet = pkt }

  let group t gid = Group_table.find t.groups gid

  (* a bare table miss drops: OpenFlow 1.3's default; controllers
     install an explicit priority-0 miss rule when they want Packet-Ins *)
  let drop t = function
    | Pipeline.No_rule -> t.counters.dropped_no_rule <- t.counters.dropped_no_rule + 1
    | Pipeline.Action -> drop_action t
end)

(** [receive t ~in_port pkt] is the data-plane entry point: applies the
    capacity and TCAM-stall gates, performs tunnel decapsulation, then
    runs the pipeline from table 0. *)
let receive t ~in_port pkt =
  t.counters.rx <- t.counters.rx + 1;
  let tnow = now t in
  if t.failed then drop_action t
  else if tnow < t.dp_blocked_until then
    t.counters.dropped_blocked <- t.counters.dropped_blocked + 1
  else if not (Token_bucket.take t.dp_bucket ~now:tnow) then
    t.counters.dropped_capacity <- t.counters.dropped_capacity + 1
  else begin
    let tunnel_id =
      match Hashtbl.find t.ports in_port with
      | port -> port.tunnel_id
      | exception Not_found -> None
    in
    (* strip the outer tunnel header and surface it as metadata *)
    let pkt =
      match tunnel_id with Some tid -> Packet.decap_tunnel ~tunnel_id:tid pkt | None -> pkt
    in
    (match t.sampler with
    | Some s ->
      (* telemetry tap: after decap, before table lookup — NetFlow-style
         port sampling that never touches the OFA (§4.1 spirit) *)
      Scotch_telemetry.Sampler.offer s ~tunnel_id (fun () -> Packet.flow_key pkt)
    | None -> ());
    P.run_table t ~table_id:0 ~in_port ~tunnel_id pkt
  end

(* ------------------------------------------------------------------ *)
(* Construction *)

(* The tables folded right to left, each consing its live rules [req]
   selects onto the records of the tables after it: the reply in table
   order, built in one pass with no list copied. *)
let flow_stats t (req : Of_msg.Stats.flow_stats_request) =
  let now = now t and select = req.Of_msg.Stats.match_ and tid = req.Of_msg.Stats.table_id in
  Array.fold_right
    (fun table acc ->
      if tid = Of_msg.Stats.all_tables || Flow_table.table_id table = tid then
        Flow_table.fold_stats table ~now ~select acc
      else acc)
    t.tables []

let handler_of t : Ofa.handler =
  { Ofa.install_flow =
      (fun fm ->
        match fm.Of_msg.Flow_mod.command with
        | Of_msg.Flow_mod.Delete ->
          Array.iter
            (fun table ->
              if Flow_table.table_id table = fm.Of_msg.Flow_mod.table_id then
                ignore (Flow_table.delete table ~match_:fm.Of_msg.Flow_mod.match_))
            t.tables;
          Ok ()
        | Of_msg.Flow_mod.Add ->
          if fm.Of_msg.Flow_mod.table_id >= Array.length t.tables then Error `Table_full
          else begin
            let table = t.tables.(fm.Of_msg.Flow_mod.table_id) in
            let result =
              Flow_table.insert table ~now:(now t)
                ~priority:fm.Of_msg.Flow_mod.priority ~match_:fm.Of_msg.Flow_mod.match_
                ~instructions:fm.Of_msg.Flow_mod.instructions
                ~idle_timeout:fm.Of_msg.Flow_mod.idle_timeout
                ~hard_timeout:fm.Of_msg.Flow_mod.hard_timeout
                ~cookie:fm.Of_msg.Flow_mod.cookie
            in
            (match result with
            | Ok () ->
              (* TCAM write stalls the forwarding pipeline (Fig. 10). *)
              let stall = t.profile.Profile.tcam_write_stall in
              if stall > 0.0 then
                t.dp_blocked_until <- Stdlib.max t.dp_blocked_until (now t) +. stall
            | Error `Table_full -> ());
            result
          end);
    modify_group =
      (fun gm ->
        let result = Group_table.apply t.groups gm in
        (match result with
        | Ok () -> notify_update t Groups_changed
        | Error _ -> ());
        result);
    execute_packet_out =
      (fun po ->
        ignore
          (P.apply_actions t ~in_port:po.Of_msg.Packet_out.in_port ~tunnel_id:None
             ~via_miss:false po.Of_msg.Packet_out.packet po.Of_msg.Packet_out.actions));
    flow_stats = flow_stats t;
    group_stats = (fun () -> Group_table.groups t.groups);
    telemetry =
      (fun () ->
        match t.sampler with
        | None -> Of_msg.Telemetry.empty
        | Some s ->
          let r = Scotch_telemetry.Sampler.report s ~now:(now t) in
          { Of_msg.Telemetry.rate = r.Scotch_telemetry.Sampler.r_rate;
            window = r.Scotch_telemetry.Sampler.r_window;
            seen = r.Scotch_telemetry.Sampler.r_seen;
            sampled = r.Scotch_telemetry.Sampler.r_sampled;
            records =
              List.map
                (fun (key, sampled) -> { Of_msg.Telemetry.key; sampled })
                r.Scotch_telemetry.Sampler.r_records });
    on_flow_mod_rejected =
      (fun () ->
        let stall = t.profile.Profile.tcam_reject_stall in
        if stall > 0.0 then
          t.dp_blocked_until <- Stdlib.max t.dp_blocked_until (now t) +. stall) }

(** Flow tables per switch: Scotch's two-table miss pipeline. *)
let num_tables = 2

(** [create engine ~dpid ~name ~profile ()] builds a switch with
    {!num_tables} flow tables. *)
let create engine ~dpid ~name ~profile () =
  let tables =
    Array.init num_tables (fun i ->
        Flow_table.create ~capacity:profile.Profile.flow_table_capacity ~table_id:i ())
  in
  let t =
    { engine; dpid; name; profile; tables; groups = Group_table.create ();
      ports = Hashtbl.create 16; ofa = None;
      dp_bucket = Token_bucket.create ~rate:profile.Profile.datapath_pps
          ~burst:(Stdlib.max 32.0 (profile.Profile.datapath_pps /. 1000.0));
      dp_blocked_until = 0.0; failed = false;
      counters =
        { rx = 0; tx = 0; dropped_blocked = 0; dropped_capacity = 0; dropped_no_rule = 0;
          dropped_action = 0 };
      sampler = None; on_update = None;
      hot_miss = Scotch_obs.Obs.hot_site ();
      hot_punt = Scotch_obs.Obs.hot_site ();
      egress = Scotch_sim.Egress.create engine ~delay:profile.Profile.forward_latency }
  in
  (* golden-ratio phase spread: devices' maintenance windows never line
     up, whatever the dpid pattern *)
  let housekeeping_phase =
    Float.rem (0.6180339887 *. float_of_int dpid *. profile.Profile.housekeeping_period)
      (Stdlib.max profile.Profile.housekeeping_period 1e-9)
  in
  t.ofa <-
    Some (Ofa.create ~housekeeping_phase ~jitter_seed:dpid ~dpid engine ~profile
            ~handler:(handler_of t));
  (* re-express the data-plane ledger on the metrics registry (pulled at
     snapshot time; the receive hot path is untouched) *)
  let module O = Scotch_obs.Obs in
  let labels = [ ("dpid", string_of_int dpid) ] in
  let c = t.counters in
  O.counter_fn ~help:"Packets entering the data plane" ~labels "scotch_switch_rx_total"
    (fun () -> c.rx);
  O.counter_fn ~help:"Packets transmitted" ~labels "scotch_switch_tx_total" (fun () -> c.tx);
  O.counter_fn ~help:"Data-plane drops" ~labels:(("reason", "blocked") :: labels)
    "scotch_switch_dropped_total" (fun () -> c.dropped_blocked);
  O.counter_fn ~help:"Data-plane drops" ~labels:(("reason", "capacity") :: labels)
    "scotch_switch_dropped_total" (fun () -> c.dropped_capacity);
  O.counter_fn ~help:"Data-plane drops" ~labels:(("reason", "no-rule") :: labels)
    "scotch_switch_dropped_total" (fun () -> c.dropped_no_rule);
  O.counter_fn ~help:"Data-plane drops" ~labels:(("reason", "action") :: labels)
    "scotch_switch_dropped_total" (fun () -> c.dropped_action);
  t

(** [add_port t ~port_id ?kind link] attaches an outgoing link on a
    port.  The peer is whatever the link's sink delivers to. *)
let add_port t ~port_id ?(kind = Normal) link =
  if Hashtbl.mem t.ports port_id then
    invalid_arg ("Switch.add_port: duplicate port on " ^ t.name);
  Hashtbl.replace t.ports port_id (port kind (Some link))

(** Declare an input-only port (e.g. where only the peer sends). *)
let add_input_port t ~port_id ?(kind = Normal) () =
  if Hashtbl.mem t.ports port_id then
    invalid_arg ("Switch.add_input_port: duplicate port on " ^ t.name);
  Hashtbl.replace t.ports port_id (port kind None)

(** Failure injection: kill or revive both planes of the switch. *)
let set_failed t failed =
  t.failed <- failed;
  Ofa.set_dead (ofa t) failed;
  notify_update t (Liveness_changed failed)

let is_failed t = t.failed

(** The outgoing link attached to a port, if any (fault injection:
    link-flap targets are addressed as (switch, port)). *)
let link_of_port t port_id =
  match Hashtbl.find_opt t.ports port_id with None -> None | Some p -> p.out

(** Ids of the switch's normal (non-tunnel) ports, sorted. *)
let normal_ports t =
  Hashtbl.fold (fun pid p acc -> if p.kind = Normal then pid :: acc else acc) t.ports []
  |> List.sort compare

(** Ids of all ports, sorted. *)
let all_ports t = Hashtbl.fold (fun pid _ acc -> pid :: acc) t.ports [] |> List.sort compare

(** Every port with its kind and outgoing link, sorted by port id — the
    port half of a verification snapshot.  [None] link means the port is
    input-only (or administratively dark). *)
let ports_snapshot t =
  Hashtbl.fold (fun pid p acc -> (pid, p.kind, p.out) :: acc) t.ports []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let dpid t = t.dpid

(** Attach (or detach, with [None]) the telemetry sampler feeding off
    the receive path.  [None] — the default — leaves the datapath
    byte-identical to a telemetry-free build. *)
let set_sampler t s = t.sampler <- s

let sampler t = t.sampler

(** Attach (or detach, with [None]) a dataplane-update observer, fired
    synchronously after every applied rule mutation, group-mod or
    liveness flip.  Table events come straight from each
    {!Flow_table.set_on_change} tap, which this call wires (or clears),
    so the default [None] keeps the flow tables observer-free. *)
let set_on_update t f =
  t.on_update <- f;
  Array.iter
    (fun tbl ->
      Flow_table.set_on_change tbl
        (match f with
        | None -> None
        | Some _ ->
          let table_id = Flow_table.table_id tbl in
          Some
            (fun ch ->
              let added, removed =
                match ch with
                | Flow_table.Rule_added r -> ([ r ], [])
                | Flow_table.Rule_removed r -> ([], [ r ])
              in
              notify_update t (Table_changed { table_id; added; removed }))))
    t.tables
let counters t = t.counters
let tables t = t.tables
let table t i = t.tables.(i)
let group_table t = t.groups

(** Install a permanent rule bypassing the OFA, with no cookie. *)
let install_direct t ~table_id ~priority ~match_ ~instructions () =
  Flow_table.insert t.tables.(table_id) ~now:(now t) ~priority ~match_ ~instructions
    ~idle_timeout:0.0 ~hard_timeout:0.0 ~cookie:Of_types.cookie_none
