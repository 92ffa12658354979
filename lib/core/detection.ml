(* Large-flow detection at the overlay vswitches (§5.3); see
   detection.mli. *)

open Scotch_openflow
open Scotch_switch
open Scotch_packet
module C = Scotch_controller.Controller
module Sampler = Scotch_telemetry.Sampler
module Assignment = Scotch_telemetry.Assignment
module Estimator = Scotch_telemetry.Estimator

type t = {
  ctrl : C.t;
  overlay : Overlay.t;
  db : Flow_info_db.t;
  config : Config.t;
  samplers : (int, Sampler.t) Hashtbl.t;
      (* per-vswitch packet samplers, present only under a sampled
         detection policy — Exact_polling never creates one *)
  duty : Assignment.t;
      (* Floware-style ledger of which uplinks each pool member samples *)
  mutable polling : bool;
      (* fault injection: a stats-polling outage suspends detection
         without touching anything else *)
  mutable on_elephant : Flow_key.t -> unit;
      (* detection hook (experiments record ground-truth hits); the
         default no-op keeps Exact_polling runs bit-identical *)
  mutable exact_msgs : int;
      (* control-channel ledger of the detection loop: message units
         (one per request, one per reply plus one per carried record)
         and encoded wire bytes, split by detection mode *)
  mutable exact_bytes : int;
  mutable sampled_msgs : int;
  mutable sampled_bytes : int;
}

let create ctrl overlay db config =
  let module O = Scotch_obs.Obs in
  let t =
    { ctrl; overlay; db; config; samplers = Hashtbl.create 16; duty = Assignment.create ();
      polling = true; on_elephant = (fun _ -> ()); exact_msgs = 0; exact_bytes = 0;
      sampled_msgs = 0; sampled_bytes = 0 }
  in
  O.counter_fn ~help:"Elephant-detection channel cost (message units)"
    ~labels:[ ("mode", "exact") ] "scotch_core_stats_channel_msgs_total"
    (fun () -> t.exact_msgs);
  O.counter_fn ~help:"Elephant-detection channel cost (message units)"
    ~labels:[ ("mode", "sampled") ] "scotch_core_stats_channel_msgs_total"
    (fun () -> t.sampled_msgs);
  O.counter_fn ~help:"Elephant-detection channel cost (wire bytes)"
    ~labels:[ ("mode", "exact") ] "scotch_core_stats_channel_bytes_total"
    (fun () -> t.exact_bytes);
  O.counter_fn ~help:"Elephant-detection channel cost (wire bytes)"
    ~labels:[ ("mode", "sampled") ] "scotch_core_stats_channel_bytes_total"
    (fun () -> t.sampled_bytes);
  t

let now t = Scotch_sim.Engine.now (C.engine t.ctrl)

(* Sampler coin streams are seeded from this constant and the vswitch
   dpid, so same-seed runs replay identical sample sets. *)
let telemetry_seed = 0x7E1E

(* Recompute the Floware duty ledger and push it into the samplers:
   each active pool member samples exactly the uplink tunnels that
   terminate at it, so every overlay packet is sampled once pool-wide
   and duty shares track the select-group spread.  No-op under
   Exact_polling. *)
let refresh_duty t =
  match t.config.Config.detection with
  | Config.Exact_polling -> ()
  | Config.Sampled _ ->
    let active =
      List.map (fun v -> Switch.dpid v.Overlay.vsw) (Overlay.active_vswitches t.overlay)
    in
    Assignment.refresh t.duty ~uplinks:(Overlay.all_uplinks t.overlay) ~active;
    Hashtbl.iter
      (fun vdpid s ->
        match Assignment.duty_tunnels t.duty vdpid with
        | [] -> Sampler.set_enabled s false
        | tids ->
          Sampler.set_enabled s true;
          Sampler.set_duty_uplinks s tids)
      t.samplers

(* Under a sampled policy, give the vswitch a datapath sampler; it
   starts disabled and earns duty at the next ledger refresh. *)
let attach_sampler t dev =
  match t.config.Config.detection with
  | Config.Exact_polling -> ()
  | Config.Sampled rate ->
    let dpid = Switch.dpid dev in
    let s = Sampler.create ~topk:Config.telemetry_topk ~seed:telemetry_seed ~dpid ~rate () in
    Sampler.set_enabled s false;
    Switch.set_sampler dev (Some s);
    Hashtbl.replace t.samplers dpid s;
    refresh_duty t

(* Control-channel ledger of the detection loop: one unit per request,
   one per reply plus one per carried record, and the encoded wire size
   of each message — the §5.3 cost the sampled policy is built to cut. *)
let account t ~sampled ~units payload =
  let bytes = Of_wire.size (Of_msg.make ~xid:0 payload) in
  if sampled then begin
    t.sampled_msgs <- t.sampled_msgs + units;
    t.sampled_bytes <- t.sampled_bytes + bytes
  end
  else begin
    t.exact_msgs <- t.exact_msgs + units;
    t.exact_bytes <- t.exact_bytes + bytes
  end

(* One pass over an exact-stats reply's records: charge each to the
   ledger and report each large overlay flow entering at [vdpid].  The
   reply carries one record per live rule, so the walk costs one probe
   per record: {!Flow_info_db.find_match_exn} reads a vflow rule's
   exact match in place, building no flow key and no option, and the
   rate stays an unboxed local. *)
let rec walk_flow_stats t ~on_large vdpid = function
  | [] -> ()
  | (st : Of_msg.Stats.flow_stat) :: rest ->
    t.exact_msgs <- t.exact_msgs + 1;
    t.exact_bytes <- t.exact_bytes + Of_wire.flow_stat_size st;
    (if st.Of_msg.Stats.cookie = Config.cookie_vflow then
       match Flow_info_db.find_match_exn t.db st.Of_msg.Stats.match_ with
       | e -> (
         match e.Flow_info_db.kind with
         | Flow_info_db.Overlay { entry_vswitch } when entry_vswitch = vdpid ->
           let delta =
             Flow_info_db.observe_count t.db e ~packets:st.Of_msg.Stats.packet_count ~now:(now t)
           in
           let interval = t.config.Config.stats_poll_interval in
           let rate = if interval > 0.0 then float_of_int delta /. interval else 0.0 in
           if rate > Config.elephant_pkt_rate then on_large ~vdpid e
         | _ -> ())
       | exception Not_found -> ());
    walk_flow_stats t ~on_large vdpid rest

(* Exact detection: poll per-flow packet counts at the vswitch and
   report its overlay flows whose measured rate is large.  The reply is
   charged as it is walked: its framing first, then each record, which
   adds up to its {!Of_wire.size}. *)
let poll_vswitch_stats t sw ~on_large vdpid =
  let req =
    { Of_msg.Stats.table_id = Of_msg.Stats.all_tables; match_ = Of_match.wildcard }
  in
  account t ~sampled:false ~units:1 (Of_msg.Flow_stats_request req);
  C.request ~deadline:t.config.Config.stats_poll_interval t.ctrl sw
    (Of_msg.Flow_stats_request req)
    (function
      | Of_msg.Flow_stats_reply stats ->
        t.exact_msgs <- t.exact_msgs + 1;
        t.exact_bytes <- t.exact_bytes + Of_wire.flow_stats_reply_framing;
        walk_flow_stats t ~on_large vdpid stats
      | _ -> ())

(* Sampled detection (§5.3 via the telemetry subsystem): drain the duty
   vswitch's sampler window and rank the carried top-k records by the
   lower confidence bound of their inverse-probability-scaled rate
   estimate.  Constant-size replies replace the per-vflow stats dump. *)
let poll_vswitch_telemetry t sw ~on_large vdpid =
  account t ~sampled:true ~units:1 Of_msg.Telemetry_request;
  C.request ~deadline:t.config.Config.stats_poll_interval t.ctrl sw Of_msg.Telemetry_request
    (function
      | Of_msg.Telemetry_reply tr ->
        account t ~sampled:true ~units:(1 + List.length tr.Of_msg.Telemetry.records)
          (Of_msg.Telemetry_reply tr);
        let rate = tr.Of_msg.Telemetry.rate in
        let window = tr.Of_msg.Telemetry.window in
        if rate > 0.0 && window > 0.0 then
          List.iter
            (fun (r : Of_msg.Telemetry.record) ->
              match Flow_info_db.find t.db r.Of_msg.Telemetry.key with
              | None -> ()
              | Some e -> (
                match e.Flow_info_db.kind with
                | Flow_info_db.Overlay { entry_vswitch } when entry_vswitch = vdpid ->
                  let c = r.Of_msg.Telemetry.sampled in
                  let lower = Estimator.rate_lower ~rate ~window c in
                  (* fold the scaled size estimate into the ledger so
                     withdrawal pinning still sees flow sizes *)
                  let est =
                    e.Flow_info_db.last_packet_count
                    + int_of_float (Float.round (Estimator.scaled ~rate c))
                  in
                  let (_ : int) = Flow_info_db.observe_count t.db e ~packets:est ~now:(now t) in
                  if lower > Config.elephant_pkt_rate then on_large ~vdpid e
                | _ -> ()))
            tr.Of_msg.Telemetry.records
      | _ -> ())

let start t ~vswitch ~on_large =
  let (_ : unit -> unit) =
    Scotch_sim.Engine.every (C.engine t.ctrl) ~period:t.config.Config.stats_poll_interval
      (fun () ->
        if t.polling then
          (* a Stats_outage fault gates both detection styles here *)
          Overlay.iter_vswitches t.overlay (fun v ->
              if v.Overlay.alive then
                let vdpid = Switch.dpid v.Overlay.vsw in
                match t.config.Config.detection with
                | Config.Exact_polling -> (
                  match vswitch vdpid with
                  | Some sw -> poll_vswitch_stats t sw ~on_large vdpid
                  | None -> ())
                | Config.Sampled _ -> (
                  if Assignment.duty_tunnels t.duty vdpid <> [] then
                    match vswitch vdpid with
                    | Some sw -> poll_vswitch_telemetry t sw ~on_large vdpid
                    | None -> ())))
  in
  ()

let set_polling t on = t.polling <- on
let set_on_elephant t f = t.on_elephant <- f
let elephant t key = t.on_elephant key
let exact_channel t = (t.exact_msgs, t.exact_bytes)
let sampled_channel t = (t.sampled_msgs, t.sampled_bytes)
