(* Tests for the reliable control-channel layer (Scotch_reliable):
   deterministic backoff schedules, the controller's xid-expiry path,
   and the anti-entropy reconciler driving every switch's device state
   back to intent under the PR 3 acceptance storm — 20 % message loss
   on every control channel, one OFA stall and one vswitch
   crash/recovery, all mid flash crowd. *)

open Scotch_switch
open Scotch_topo
open Scotch_openflow
open Scotch_faults
open Scotch_experiments
module C = Scotch_controller.Controller
module R = Scotch_reliable.Reliable
module Backoff = Scotch_reliable.Backoff

(* ------------------------------------------------------------------ *)
(* Backoff: delays are a pure function of (seed, salt, attempt) *)

(* The first [n] delays of the retry sequence [salt], in order. *)
let delays b ~salt n = List.init n (fun i -> Backoff.delay b ~salt ~attempt:(i + 1) ())

let test_backoff_deterministic () =
  let b1 = Backoff.create ~seed:7 () and b2 = Backoff.create ~seed:7 () in
  Alcotest.(check (list (float 1e-12))) "same seed, same schedule"
    (delays b1 ~salt:3 6) (delays b2 ~salt:3 6);
  Alcotest.(check (float 1e-12)) "pure in attempt: re-asking is stable"
    (Backoff.delay b1 ~salt:3 ~attempt:2 ())
    (Backoff.delay b1 ~salt:3 ~attempt:2 ());
  Alcotest.(check bool) "salts decorrelate retry sequences" true
    (delays b1 ~salt:1 6 <> delays b1 ~salt:2 6);
  Alcotest.(check bool) "seeds decorrelate deployments" true
    (delays b1 ~salt:0 6 <> delays (Backoff.create ~seed:8 ()) ~salt:0 6)

let test_backoff_envelope () =
  let open Backoff in
  let b = Backoff.create ~seed:42 () in
  List.iteri
    (fun i d ->
      let nominal = Stdlib.min (base *. (factor ** float_of_int i)) cap in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d within +/-25%% of %.3f s" (i + 1) nominal)
        true
        (d >= ((1.0 -. jitter) *. nominal) -. 1e-9 && d <= ((1.0 +. jitter) *. nominal) +. 1e-9))
    (delays b ~salt:0 8)

(* ------------------------------------------------------------------ *)
(* Controller xid expiry: a lost reply no longer strands the pending
   entry forever *)

let fast_profile =
  { Profile.open_vswitch with Profile.forward_latency = 0.0; datapath_pps = 1e9 }

let rig () =
  let e = Scotch_sim.Engine.create () in
  let topo = Topology.create e in
  let sw = Switch.create e ~dpid:1 ~name:"s" ~profile:fast_profile () in
  Topology.add_switch topo sw;
  let ctrl = C.create e topo in
  let h = C.connect ctrl sw ~latency:0.001 in
  Scotch_sim.Engine.run e;
  (e, sw, ctrl, h)

let test_xid_expiry () =
  let e, sw, ctrl, h = rig () in
  (* the agent dies: the stats request will never be answered *)
  Switch.set_failed sw true;
  let replied = ref false and timed_out = ref false in
  C.request ctrl h ~deadline:0.5
    ~on_timeout:(fun () -> timed_out := true)
    Of_msg.Group_stats_request
    (fun _ -> replied := true);
  Alcotest.(check int) "request pending" 1 (C.pending_requests ctrl);
  Scotch_sim.Engine.run e;
  Alcotest.(check bool) "on_timeout fired" true !timed_out;
  Alcotest.(check bool) "continuation dropped" false !replied;
  Alcotest.(check int) "expiry counted" 1 (C.counters ctrl).C.expired_requests;
  Alcotest.(check int) "pending table drained" 0 (C.pending_requests ctrl)

(* An answered request's expiry event still runs at its deadline, and
   does nothing: the reply already took the xid out of the table. *)
let test_xid_answered_never_expires () =
  let e, _, ctrl, h = rig () in
  let sent_at = Scotch_sim.Engine.now e in
  let replied = ref false and timed_out = ref false in
  C.request ctrl h ~deadline:5.0
    ~on_timeout:(fun () -> timed_out := true)
    Of_msg.Group_stats_request
    (fun _ -> replied := true);
  Scotch_sim.Engine.run e;
  Alcotest.(check bool) "reply routed" true !replied;
  Alcotest.(check bool) "no timeout" false !timed_out;
  Alcotest.(check (float 1e-9)) "the expiry ran at its deadline" (sent_at +. 5.0)
    (Scotch_sim.Engine.now e);
  Alcotest.(check int) "nothing expired" 0 (C.counters ctrl).C.expired_requests;
  Alcotest.(check int) "pending table drained" 0 (C.pending_requests ctrl)

(* ------------------------------------------------------------------ *)
(* Reconciler vs pool churn: a vswitch ejected mid-reconcile.  Pool
   removal withdraws the member's intent records; its device rules
   linger until cleanup.  The reconciler — whose stats snapshot may
   already be in flight when the ejection lands — must delete those
   owned leftovers as orphans and never re-install them from a stale
   diff ("resurrection"). *)

let owned_cookie = 0xBEE5L

let mk_packet i =
  Scotch_packet.Packet.tcp_syn ~flow_id:i ~created:0.0
    ~src_mac:(Scotch_packet.Mac.of_host_id 1)
    ~dst_mac:(Scotch_packet.Mac.of_host_id 2)
    ~ip_src:(Scotch_packet.Ipv4_addr.of_int (0x0A000000 + i))
    ~ip_dst:(Scotch_packet.Ipv4_addr.make 10 0 0 200)
    ~src_port:(1024 + i) ~dst_port:80 ()

let test_churn_no_resurrection () =
  let e = Scotch_sim.Engine.create () in
  let topo = Topology.create e in
  let vsw = Switch.create e ~dpid:100 ~name:"vsw100" ~profile:fast_profile () in
  Topology.add_switch topo vsw;
  let ctrl = C.create e topo in
  let h = C.connect ctrl vsw ~latency:0.001 in
  let r = R.create ~seed:0 ~owned_cookies:[ owned_cookie ] ctrl in
  R.register_switch r h;
  R.start r;
  let match_of i = Of_match.exact_flow (Scotch_packet.Packet.flow_key (mk_packet i)) in
  let fm i =
    Of_msg.Flow_mod.add ~priority:10 ~cookie:owned_cookie ~match_:(match_of i)
      ~instructions:(Of_action.output (Of_types.Port_no.Physical 1)) ()
  in
  R.transaction r h [ Of_msg.Flow_mod (fm 1); Of_msg.Flow_mod (fm 2) ];
  Scotch_sim.Engine.run e ~until:2.0;
  let on_device i =
    Flow_table.peek (Switch.table vsw 0) ~now:(Scotch_sim.Engine.now e)
      (Of_match.context ~in_port:1 (mk_packet i))
    <> None
  in
  Alcotest.(check bool) "both rules installed and quiet" true (on_device 1 && on_device 2);
  Alcotest.(check int) "no repairs while healthy" 0
    ((R.stats r).R.repairs_missing + (R.stats r).R.repairs_orphan);
  (* ejection lands mid-round: the tick's stats snapshot is in flight
     when the member's intent is withdrawn *)
  R.tick r;
  let intents = Option.get (R.intent_of r 100) in
  Option.iter
    (fun r -> Scotch_reliable.Intent.forget_rule intents (0, r))
    (Scotch_reliable.Intent.find_rule intents ~table_id:0 ~priority:10 ~match_:(match_of 1));
  Scotch_sim.Engine.run e ~until:6.0;
  Alcotest.(check bool) "orphan deleted from the device" false (on_device 1);
  Alcotest.(check bool) "surviving member's rule untouched" true (on_device 2);
  Alcotest.(check bool) "orphan repair recorded" true ((R.stats r).R.repairs_orphan >= 1);
  Alcotest.(check int) "never re-installed (no missing repairs)" 0
    (R.stats r).R.repairs_missing;
  Alcotest.(check bool) "reconciler converged after churn" true (R.converged r);
  (* stability: further rounds change nothing — the ejected member's
     rule stays gone *)
  let orphan_repairs = (R.stats r).R.repairs_orphan in
  Scotch_sim.Engine.run e ~until:10.0;
  Alcotest.(check bool) "still gone rounds later" false (on_device 1);
  Alcotest.(check int) "no repair churn at steady state" orphan_repairs
    (R.stats r).R.repairs_orphan

(* ------------------------------------------------------------------ *)
(* Every divergence kind, judged by both sides of the intent/device
   diff: the verifier's Divergence invariant reports each one, a single
   reconcile round repairs each one, and afterwards the verifier sees
   nothing.  Group 2 keeps its one bucket, whose actions drift. *)

let foreign_cookie = 0xF00DL

let test_every_divergence_kind () =
  let e = Scotch_sim.Engine.create () in
  let topo = Topology.create e in
  let vsw = Switch.create e ~dpid:100 ~name:"vsw100" ~profile:fast_profile () in
  Topology.add_switch topo vsw;
  let ctrl = C.create e topo in
  let h = C.connect ctrl vsw ~latency:0.001 in
  let r = R.create ~seed:0 ~owned_cookies:[ owned_cookie ] ctrl in
  R.register_switch r h;
  let match_of i = Of_match.exact_flow (Scotch_packet.Packet.flow_key (mk_packet i)) in
  let out = Of_action.output (Of_types.Port_no.Physical 1) in
  let bucket p = Of_msg.Group_mod.bucket [ Of_action.Output (Of_types.Port_no.Physical p) ] in
  let durable = match_of 1 and ephemeral = match_of 2 in
  R.transaction r h
    [ Of_msg.Group_mod (Of_msg.Group_mod.add_select ~group_id:1 ~buckets:[ bucket 1 ]);
      Of_msg.Group_mod (Of_msg.Group_mod.add_select ~group_id:2 ~buckets:[ bucket 2 ]);
      Of_msg.Flow_mod
        (Of_msg.Flow_mod.add ~priority:20 ~cookie:owned_cookie ~match_:durable
           ~instructions:out ());
      Of_msg.Flow_mod
        (Of_msg.Flow_mod.add ~priority:10 ~idle_timeout:0.5 ~cookie:owned_cookie
           ~match_:ephemeral ~instructions:out ()) ];
  Scotch_sim.Engine.run e ~until:0.1;
  (* tamper with the device behind the controller's back; the
     idle-timeout rule expires on its own at 0.5 s *)
  let table = Switch.table vsw 0 and groups = Switch.group_table vsw in
  Alcotest.(check int) "durable rule deleted" 1
    (Flow_table.delete table ~priority:20 ~match_:durable ());
  let direct ~cookie i =
    Result.get_ok
      (Flow_table.insert table ~now:(Scotch_sim.Engine.now e) ~priority:10 ~match_:(match_of i)
         ~instructions:out ~idle_timeout:0.0 ~hard_timeout:0.0 ~cookie)
  in
  direct ~cookie:owned_cookie 3;
  direct ~cookie:foreign_cookie 4;
  let tamper gm =
    Alcotest.(check bool) "group tampered" true (Result.is_ok (Group_table.apply groups gm))
  in
  tamper (Of_msg.Group_mod.modify_select ~group_id:1 ~buckets:[ bucket 3 ]);
  tamper
    (Of_msg.Group_mod.modify_select ~group_id:2
       ~buckets:
         [ Of_msg.Group_mod.bucket
             [ Of_action.Push_mpls 5; Of_action.Output (Of_types.Port_no.Physical 2) ] ]);
  tamper (Of_msg.Group_mod.add_select ~group_id:9 ~buckets:[ bucket 1 ]);
  let divergence () =
    let now = Scotch_sim.Engine.now e in
    let snap =
      { (Scotch_verify.Snapshot.capture ~now topo) with
        Scotch_verify.Snapshot.intents =
          Some (Scotch_verify.Snapshot.reliable_intents r) }
    in
    Scotch_verify.check snap
    |> List.filter (fun (d : Scotch_verify.Diagnostic.t) ->
           d.Scotch_verify.Diagnostic.invariant = Scotch_verify.Diagnostic.Divergence)
    |> List.map Scotch_verify.Diagnostic.to_string
  in
  (* past the repair grace on both sides *)
  Scotch_sim.Engine.run e ~until:2.0;
  let rule_text prio i =
    Format.asprintf "(rule prio %d %a)" prio Of_match.pp (match_of i)
  in
  Alcotest.(check (list string)) "verifier: one finding per divergence"
    [ "[error] divergence at dpid 100: device group 9 has no intent (orphan)";
      "[error] divergence at dpid 100: group 1 buckets on the device differ from intent";
      "[error] divergence at dpid 100: group 2 buckets on the device differ from intent";
      "[error] divergence at dpid 100 table 0: device rule with a reconciler-owned cookie \
       has no intent (orphan) " ^ rule_text 10 3;
      "[error] divergence at dpid 100 table 0: durable intent rule is missing from the \
       device " ^ rule_text 20 1 ]
    (divergence ());
  R.tick r;
  Scotch_sim.Engine.run e ~until:3.0;
  let s = R.stats r in
  Alcotest.(check (list int)) "one round: missing, orphan, group repairs" [ 1; 1; 3 ]
    [ s.R.repairs_missing; s.R.repairs_orphan; s.R.repairs_group ];
  let intents = Option.get (R.intent_of r 100) in
  Alcotest.(check bool) "expired ephemeral intent forgotten" true
    (Scotch_reliable.Intent.find_rule intents ~table_id:0 ~priority:10 ~match_:ephemeral
     = None);
  Alcotest.(check bool) "foreign-cookie rule left alone" true
    (List.exists
       (fun (fr : Flow_table.rule) -> fr.Flow_table.cookie = foreign_cookie)
       (Flow_table.live_rules table ~now:(Scotch_sim.Engine.now e)));
  Alcotest.(check bool) "bucket-action drift repaired by a Modify" true
    (Option.map (fun (g : Group_table.group) -> g.Group_table.buckets)
       (Group_table.find groups 2)
    = Some [ bucket 2 ]);
  Alcotest.(check (list string)) "verifier: clean after the round" [] (divergence ())

(* ------------------------------------------------------------------ *)
(* Intent store: one classifier per table *)

module Intent = Scotch_reliable.Intent
module Ipv4_addr = Scotch_packet.Ipv4_addr

let dst_only i =
  Of_match.exact_flow
    (Scotch_packet.Flow_key.make ~ip_src:(Ipv4_addr.make 10 0 0 1)
       ~ip_dst:(Ipv4_addr.of_int (0x0A010000 + i)) ~proto:6 ~l4_src:5000 ~l4_dst:80 ())

(* Matches the random ops draw from, each with its mask shape: exact
   flows that differ only in ip_dst, three /24s (the last stored with
   host bits set, so it is canonically the second), an in_port match,
   the wildcard and an in_port+tunnel match. *)
let pool =
  let dst24 v = Some { Of_match.value = v; mask = 0xFFFFFF00 } in
  Array.of_list
    (List.init 8 (fun i -> (dst_only i, 0))
    @ [ ({ Of_match.wildcard with Of_match.ip_dst = dst24 0x0A010000 }, 1);
        ({ Of_match.wildcard with Of_match.ip_dst = dst24 0x0A010100 }, 1);
        ({ Of_match.wildcard with Of_match.ip_dst = dst24 0x0A010107 }, 1);
        (Of_match.with_in_port 3 Of_match.wildcard, 2);
        (Of_match.wildcard, 3);
        (Of_match.with_tunnel_id 4 (Of_match.with_in_port 2 Of_match.wildcard), 4) ])

let priorities = [| 0; 10; 20 |]

let intent_add ~table ~priority ~idle ~cookie match_ =
  Of_msg.Flow_mod.add ~table_id:table ~priority ~idle_timeout:(if idle then 5.0 else 0.0)
    ~cookie ~match_ ~instructions:(Of_action.output (Of_types.Port_no.Physical 1)) ()

type store_op =
  | Add of { table : int; priority : int; m : int; idle : bool }
  | Delete of { table : int; m : int }
  | Forget of { table : int; priority : int; m : int }

let store_op_gen =
  QCheck.Gen.(
    let table = int_bound 2 and priority = map (Array.get priorities) (int_bound 2)
    and m = int_bound (Array.length pool - 1) in
    frequency
      [ (5, map (fun (table, priority, m, idle) -> Add { table; priority; m; idle })
              (quad table priority m bool));
        (2, map (fun (table, m) -> Delete { table; m }) (pair table m));
        (2,
         map (fun (table, priority, m) -> Forget { table; priority; m })
           (triple table priority m)) ])

let print_store_op = function
  | Add { table; priority; m; idle } ->
    Printf.sprintf "add t%d p%d m%d%s" table priority m (if idle then " idle" else "")
  | Delete { table; m } -> Printf.sprintf "delete t%d m%d" table m
  | Forget { table; priority; m } -> Printf.sprintf "forget t%d p%d m%d" table priority m

(* The store against an association-list model of OpenFlow ADD and
   non-strict DELETE, keyed by (table, priority, canonical match), after
   1000 exact rules that differ only in ip_dst.  [find_rule] answers as
   the model does for every slot the ops can name, and [rules] lists
   the model's rules in the documented order: table id, descending
   priority, mask-shape creation order, then recording order. *)
let prop_intent_store_model =
  QCheck.Test.make ~name:"intent store agrees with an association-list model" ~count:60
    (QCheck.make ~print:QCheck.Print.(list print_store_op)
       QCheck.Gen.(list_size (int_range 1 60) store_op_gen))
    (fun ops ->
      let t = Intent.create () in
      (* model: ((table, priority, match), (recorded_at, shape)), and the
         (table, priority, shape) subtables in creation order *)
      let model = ref [] and shapes = ref [] in
      let add ~now ~table ~priority ~idle (m, shape) =
        Intent.record_flow_mod t ~now (intent_add ~table ~priority ~idle ~cookie:1L m);
        let key = (table, priority, Of_match.canonical m) in
        model := List.remove_assoc key !model @ [ (key, (now, shape)) ];
        if not (List.mem (table, priority, shape) !shapes) then
          shapes := !shapes @ [ (table, priority, shape) ]
      in
      for i = 0 to 999 do
        add ~now:(float_of_int (i - 1000)) ~table:0 ~priority:10 ~idle:false (dst_only i, 0)
      done;
      List.iteri
        (fun i op ->
          let now = float_of_int i in
          match op with
          | Add { table; priority; m; idle } -> add ~now ~table ~priority ~idle pool.(m)
          | Delete { table; m } ->
            let m = fst pool.(m) in
            Intent.record_flow_mod t ~now (Of_msg.Flow_mod.delete ~table_id:table ~match_:m ());
            model :=
              List.filter
                (fun ((tbl, _, km), _) -> not (tbl = table && km = Of_match.canonical m))
                !model
          | Forget { table; priority; m } ->
            let m = Of_match.canonical (fst pool.(m)) in
            let r =
              match Intent.find_rule t ~table_id:table ~priority ~match_:m with
              | Some r -> r
              | None ->
                { Classifier.priority; match_ = m; instructions = []; idle_timeout = 0.0;
                  hard_timeout = 0.0; cookie = 0L; installed_at = 0.0; last_used = 0.0;
                  packet_count = 0; byte_count = 0 }
            in
            Intent.forget_rule t (table, r);
            model := List.remove_assoc (table, priority, m) !model)
        ops;
      let creation (table, priority, _) shape =
        let rec index i = function
          | [] -> max_int
          | s :: rest -> if s = (table, priority, shape) then i else index (i + 1) rest
        in
        index 0 !shapes
      in
      let expected =
        List.sort
          (fun ((ta, pa, _) as ka, (ra, sa)) ((tb, pb, _) as kb, (rb, sb)) ->
            compare (ta, -pa, creation ka sa, ra) (tb, -pb, creation kb sb, rb))
          !model
        |> List.map (fun ((table, priority, m), (at, _)) -> (table, priority, m, at))
      in
      let listed =
        List.map
          (fun (table, (r : Classifier.rule)) -> (table, r.priority, r.match_, r.installed_at))
          (Intent.rules t)
      in
      let probes_agree =
        List.for_all
          (fun table ->
            Array.for_all
              (fun priority ->
                Array.for_all
                  (fun (m, _) ->
                    let m = Of_match.canonical m in
                    Option.map
                      (fun (r : Classifier.rule) -> r.installed_at)
                      (Intent.find_rule t ~table_id:table ~priority ~match_:m)
                    = Option.map fst (List.assoc_opt (table, priority, m) !model))
                  pool)
              priorities)
          [ 0; 1; 2 ]
      in
      listed = expected && probes_agree
      && Intent.durable_rules t
         = List.filter (fun (_, (r : Classifier.rule)) -> r.idle_timeout = 0.0) (Intent.rules t))

(* The diff as the store kept it before it moved onto classifiers: two
   stdlib tables of slots, one per side, and a list walk each way. *)
let reference_diff ~rules ~groups ~flow_stats ~group_descs ~now ~grace ~owned =
  let rule_key (table_id, (r : Classifier.rule)) = (table_id, r.priority, r.match_) in
  let stat_key (fs : Of_msg.Stats.flow_stat) = (fs.table_id, fs.priority, fs.match_) in
  let index key_of l =
    let h = Hashtbl.create 64 in
    List.iter (fun x -> Hashtbl.replace h (key_of x) ()) l;
    h
  in
  let on_device = index stat_key flow_stats and intended = index rule_key rules in
  let settled recorded_at = now -. recorded_at >= grace in
  let durable (_, (r : Classifier.rule)) = r.idle_timeout = 0.0 && r.hard_timeout = 0.0 in
  let missing, expired =
    List.filter
      (fun ((_, (r : Classifier.rule)) as x) ->
        settled r.installed_at && not (Hashtbl.mem on_device (rule_key x)))
      rules
    |> List.partition durable
  in
  let orphans =
    List.filter
      (fun (fs : Of_msg.Stats.flow_stat) ->
        fs.duration >= grace && List.mem fs.cookie owned
        && not (Hashtbl.mem intended (stat_key fs)))
      flow_stats
  in
  let changed =
    List.filter_map
      (fun (g : Intent.group) ->
        if not (settled g.recorded_at) then None
        else
          match
            List.find_opt (fun (d : Of_msg.Stats.group_desc) -> d.group_id = g.group_id)
              group_descs
          with
          | None -> Some (Intent.Group_missing g)
          | Some d when d.buckets <> g.buckets -> Some (Intent.Group_changed g)
          | Some _ -> None)
      groups
  in
  let foreign =
    List.filter_map
      (fun (d : Of_msg.Stats.group_desc) ->
        if List.exists (fun (g : Intent.group) -> g.group_id = d.group_id) groups then None
        else Some (Intent.Group_foreign d.group_id))
      group_descs
  in
  (changed @ foreign, missing, expired, orphans)

(* Random intents (recorded at ages on both sides of the grace) and a
   random device (durations on both sides, owned and foreign cookies,
   some slots shared with the intents): [diff] finds the same missing,
   expired and orphan rules as the reference, and the same group
   differences in the same order. *)
let prop_intent_diff_reference =
  let open QCheck.Gen in
  let table = int_bound 1 and priority = oneofl [ 10; 20 ]
  and m = int_bound (Array.length pool - 1) and cookie = oneofl [ owned_cookie; foreign_cookie ] in
  let intent_gen =
    quad (triple table priority m) bool cookie (oneofl [ 0.0; 1.0; 2.0; 2.25; 2.5; 2.9 ])
  in
  let device_gen = triple (triple table priority m) cookie (oneofl [ 0.1; 0.5; 0.75; 1.0; 2.0 ]) in
  let bucket_gen =
    map
      (fun p -> [ Of_msg.Group_mod.bucket [ Of_action.Output (Of_types.Port_no.Physical p) ] ])
      (int_range 1 2)
  in
  let group_gen = triple (int_range 1 4) bucket_gen (oneofl [ 0.0; 2.5 ]) in
  let desc_gen = pair (int_range 1 5) bucket_gen in
  let gen =
    quad (list_size (int_bound 30) intent_gen) (list_size (int_bound 30) device_gen)
      (list_size (int_bound 5) group_gen) (list_size (int_bound 5) desc_gen)
  in
  QCheck.Test.make ~name:"intent diff agrees with the two-table reference" ~count:300
    (QCheck.make gen) (fun (intents, device, groups, descs) ->
      let now = 3.0 and grace = 0.75 and owned = [ owned_cookie ] in
      let t = Intent.create () in
      List.iter
        (fun ((table, priority, m), idle, cookie, at) ->
          Intent.record_flow_mod t ~now:at
            (intent_add ~table ~priority ~idle ~cookie (fst pool.(m))))
        intents;
      List.iter
        (fun (group_id, buckets, at) ->
          Intent.record_group_mod t ~now:at (Of_msg.Group_mod.add_select ~group_id ~buckets))
        groups;
      (* a device holds one rule per slot, its match canonical *)
      let flow_stats =
        List.fold_left
          (fun acc ((table_id, priority, m), cookie, duration) ->
            let match_ = Of_match.canonical (fst pool.(m)) in
            if
              List.exists
                (fun (fs : Of_msg.Stats.flow_stat) ->
                  fs.table_id = table_id && fs.priority = priority && fs.match_ = match_)
                acc
            then acc
            else
              { Of_msg.Stats.table_id; priority; match_; packet_count = 0; byte_count = 0;
                duration; cookie }
              :: acc)
          [] device
      in
      let group_descs =
        List.fold_left
          (fun acc (group_id, buckets) ->
            if List.exists (fun (d : Of_msg.Stats.group_desc) -> d.group_id = group_id) acc
            then acc
            else { Of_msg.Stats.group_id; buckets } :: acc)
          [] descs
      in
      let d = Intent.diff t ~flow_stats ~group_descs ~now ~grace ~owned in
      let groups', missing', expired', orphans' =
        reference_diff ~rules:(Intent.rules t) ~groups:(Intent.groups t) ~flow_stats
          ~group_descs ~now ~grace ~owned
      in
      let slots l =
        List.sort compare
          (List.map (fun (table, (r : Classifier.rule)) -> (table, r.priority, r.match_)) l)
      in
      slots d.Intent.missing = slots missing'
      && slots d.Intent.expired = slots expired'
      && List.sort compare d.Intent.orphans = List.sort compare orphans'
      && d.Intent.groups = groups')

(* ------------------------------------------------------------------ *)
(* The reconciler under the acceptance storm *)

(* drop_p = 0.2 on every control channel across the flash window, one
   OFA stall on the edge switch and one vswitch crash/recovery. *)
let storm_outcome seed =
  Resilience.run_outcome ~seed ~scale:0.25 ~kills:1 ~multiplier:5.0 ~reconcile:true
    ~drop_p:0.2 ()

(* Bounded extra reconcile rounds past the experiment horizon: the
   acceptance bar is convergence within a bounded number of rounds, not
   convergence by an experiment-chosen wall-clock instant. *)
let settle net r =
  let rec go rounds =
    if (not (R.converged r)) && rounds > 0 then begin
      Testbed.run_until net
        ~until:(Scotch_sim.Engine.now net.Testbed.engine +. R.reconcile_interval);
      go (rounds - 1)
    end
  in
  go 16

let test_storm_converges_to_intent () =
  let o = storm_outcome 42 in
  let net = o.Resilience.net in
  let r = Option.get net.Testbed.reliable in
  (* the storm actually bit: control messages were lost *)
  let conv = Option.get (Ledger.convergence o.Resilience.ledger) in
  Alcotest.(check bool) "control messages were dropped" true (conv.Ledger.conv_chan_dropped > 0);
  settle net r;
  Alcotest.(check bool) "reconciler converged" true (R.converged r);
  (* intent == actual, as the static verifier sees it *)
  let snap =
    Scotch_verify.Snapshot.capture ~scotch:net.Testbed.app
      ~now:(Scotch_sim.Engine.now net.Testbed.engine)
      net.Testbed.topo
  in
  Alcotest.(check bool) "snapshot carries the intent stores" true
    (snap.Scotch_verify.Snapshot.intents <> None);
  let errs = Scotch_verify.Diagnostic.errors (Scotch_verify.check snap) in
  List.iter (fun d -> print_endline (Scotch_verify.Diagnostic.to_string d)) errs;
  Alcotest.(check int) "zero invariant errors (incl. divergence)" 0 (List.length errs)

let test_storm_digest_deterministic () =
  let run () =
    let o = storm_outcome 42 in
    let r = Option.get o.Resilience.net.Testbed.reliable in
    settle o.Resilience.net r;
    (R.digest r, R.canonical r, Ledger.canonical o.Resilience.ledger)
  in
  let d1, c1, l1 = run () and d2, c2, l2 = run () in
  Alcotest.(check string) "same seed, same reconciliation digest" d1 d2;
  Alcotest.(check bool) "identical canonical reconciliation ledgers" true (c1 = c2);
  Alcotest.(check bool) "identical recovery ledgers (with convergence block)" true (l1 = l2)

let test_unimpaired_run_is_quiet () =
  (* reliable layer on, no faults at all: the reconciler must find
     nothing to repair and nothing may degrade.  (A large activation
     batch can still miss the 250 ms barrier deadline under peak OFA
     load and trigger a benign retransmit, so retries are bounded by
     the budget rather than zero.) *)
  let o =
    Resilience.run_outcome ~seed:42 ~scale:0.25 ~kills:0 ~multiplier:5.0 ~reconcile:true ()
  in
  let r = Option.get o.Resilience.net.Testbed.reliable in
  let s = R.stats r in
  Alcotest.(check int) "no missing-rule repairs" 0 s.R.repairs_missing;
  Alcotest.(check int) "no orphan deletions" 0 s.R.repairs_orphan;
  Alcotest.(check int) "no group repairs" 0 s.R.repairs_group;
  Alcotest.(check int) "no resyncs" 0 s.R.resyncs;
  Alcotest.(check int) "no parked transactions" 0 s.R.txns_parked;
  Alcotest.(check int) "no degradations" 0 s.R.degraded_transitions;
  Alcotest.(check bool) "retries within one budget" true
    (s.R.retries <= R.retry_budget);
  Alcotest.(check bool) "transactions flowed" true (s.R.txns_sent > 0);
  Alcotest.(check int) "every transaction acked" s.R.txns_sent s.R.txns_acked;
  Alcotest.(check bool) "converged" true (R.converged r);
  Alcotest.(check (list (float 1e-9))) "no divergence windows" [] (R.divergence_windows r)

(* ------------------------------------------------------------------ *)
(* The verifier's divergence path, differentially: random reliable
   installs and deletes, lossy control channels, reconciler rounds and
   time steps on two switches, with the incremental verifier tapped in
   as the verification hooks tap it.  After every step its diagnostic
   set must agree with a full rescan of its own model (the audit, taken
   before anything sweeps the rules the switches expired lazily), and
   then, with those rules swept and the verifier brought to the current
   time, with the checker on a fresh capture. *)

module V = Scotch_verify
module Incr = Scotch_verify.Incremental

type div_step =
  | Install of { dpid : int; m : int; durable : bool }
  | Remove of { dpid : int; m : int }
  | Regroup of { dpid : int; port : int }
  | Loss of { dpid : int; drop_p : float }
  | Reconcile
  | Advance of float

let div_step_gen =
  QCheck.Gen.(
    let dpid = int_range 1 2 and m = int_bound 3 in
    frequency
      [ (4, map (fun (dpid, m, durable) -> Install { dpid; m; durable }) (triple dpid m bool));
        (2, map (fun (dpid, m) -> Remove { dpid; m }) (pair dpid m));
        (1, map (fun (dpid, port) -> Regroup { dpid; port }) (pair dpid (int_range 1 3)));
        (1, map (fun (dpid, drop_p) -> Loss { dpid; drop_p }) (pair dpid (oneofl [ 0.0; 0.5; 0.9 ])));
        (2, return Reconcile);
        (5, map (fun dt -> Advance dt) (oneofl [ 0.01; 0.05; 0.2; 0.5; 1.0 ])) ])

let print_div_step = function
  | Install { dpid; m; durable } ->
    Printf.sprintf "install s%d m%d%s" dpid m (if durable then "" else " idle")
  | Remove { dpid; m } -> Printf.sprintf "remove s%d m%d" dpid m
  | Regroup { dpid; port } -> Printf.sprintf "regroup s%d p%d" dpid port
  | Loss { dpid; drop_p } -> Printf.sprintf "loss s%d %g" dpid drop_p
  | Reconcile -> "reconcile"
  | Advance dt -> Printf.sprintf "advance %g" dt

let prop_divergence_differential =
  QCheck.Test.make ~name:"incremental divergence agrees with a fresh rescan" ~count:100
    (QCheck.make ~print:QCheck.Print.(list print_div_step)
       QCheck.Gen.(list_size (int_range 1 40) div_step_gen))
    (fun steps ->
      let e = Scotch_sim.Engine.create () in
      let now () = Scotch_sim.Engine.now e in
      let topo = Topology.create e in
      let ctrl = C.create e topo in
      let r = R.create ~seed:0 ~owned_cookies:[ owned_cookie ] ctrl in
      let rigs =
        List.map
          (fun dpid ->
            let sw = Switch.create e ~dpid ~name:"s" ~profile:fast_profile () in
            Topology.add_switch topo sw;
            let h = C.connect ctrl sw ~latency:0.05 in
            R.register_switch r h;
            (sw, h))
          [ 1; 2 ]
      in
      let capture () =
        { (V.Snapshot.capture ~now:(now ()) topo) with
          V.Snapshot.intents = Some (V.Snapshot.reliable_intents r) }
      in
      let incr = Incr.create ~now:(now ()) (capture ()) in
      let apply u = ignore (Incr.apply incr ~now:(now ()) u) in
      List.iter
        (fun (sw, _) ->
          let dpid = Switch.dpid sw in
          Switch.set_on_update sw
            (Some
               (function
                 | Switch.Table_changed { table_id; added; removed } ->
                   apply (Incr.Table_delta { dpid; table_id; added; removed })
                 | Switch.Groups_changed ->
                   apply (Incr.Groups { dpid; groups = Group_table.groups (Switch.group_table sw) })
                 | Switch.Liveness_changed _ -> ())))
        rigs;
      R.set_on_intent r
        (Some
           (fun dpid ->
             Option.iter (fun store -> apply (Incr.Intents { dpid; store })) (R.intent_of r dpid)));
      let handle dpid = snd (List.nth rigs (dpid - 1)) in
      let match_of m = Of_match.exact_flow (Scotch_packet.Packet.flow_key (mk_packet m)) in
      let run = function
        | Install { dpid; m; durable } ->
          R.transaction r (handle dpid)
            [ Of_msg.Flow_mod
                (Of_msg.Flow_mod.add ~priority:10 ~idle_timeout:(if durable then 0.0 else 1.0)
                   ~cookie:owned_cookie ~match_:(match_of m)
                   ~instructions:(Of_action.output (Of_types.Port_no.Physical 1)) ()) ]
        | Remove { dpid; m } ->
          R.transaction r (handle dpid)
            [ Of_msg.Flow_mod (Of_msg.Flow_mod.delete ~match_:(match_of m) ()) ]
        | Regroup { dpid; port } ->
          let buckets =
            [ Of_msg.Group_mod.bucket [ Of_action.Output (Of_types.Port_no.Physical port) ] ]
          in
          let mod_ =
            if Scotch_reliable.Intent.groups (Option.get (R.intent_of r dpid)) = [] then
              Of_msg.Group_mod.add_select
            else Of_msg.Group_mod.modify_select
          in
          R.transaction r (handle dpid) [ Of_msg.Group_mod (mod_ ~group_id:1 ~buckets) ]
        | Loss { dpid; drop_p } ->
          C.set_channel_impairment (handle dpid) ~extra_latency:0.0 ~drop_p
        | Reconcile -> R.tick r
        | Advance dt -> Scotch_sim.Engine.run e ~until:(now () +. dt)
      in
      let agrees full =
        let current = Incr.diagnostics incr in
        List.compare_lengths full current = 0
        && List.for_all2 (fun a b -> V.Diagnostic.compare a b = 0) full current
      in
      List.for_all
        (fun step ->
          run step;
          let audited = Incr.check_equivalence incr in
          List.iter
            (fun (sw, _) ->
              Array.iter (fun tbl -> ignore (Flow_table.size tbl ~now:(now ()))) (Switch.tables sw))
            rigs;
          (* an empty delta: the verifier's clock moves to now *)
          apply (Incr.Table_delta { dpid = 1; table_id = 0; added = []; removed = [] });
          audited && agrees (V.check (capture ())) && Incr.check_equivalence incr)
        steps)

let () =
  Alcotest.run "scotch_reliable"
    [ ( "backoff",
        [ Alcotest.test_case "deterministic schedule" `Quick test_backoff_deterministic;
          Alcotest.test_case "jitter envelope and cap" `Quick test_backoff_envelope ] );
      ( "intent store",
        [ QCheck_alcotest.to_alcotest prop_intent_store_model;
          QCheck_alcotest.to_alcotest prop_intent_diff_reference ] );
      ( "xid expiry",
        [ Alcotest.test_case "deadline reclaims lost reply" `Quick test_xid_expiry;
          Alcotest.test_case "answered request never expires" `Quick
            test_xid_answered_never_expires ] );
      ( "reconciler",
        [ Alcotest.test_case "storm converges to intent" `Quick test_storm_converges_to_intent;
          Alcotest.test_case "storm digest deterministic" `Quick test_storm_digest_deterministic;
          Alcotest.test_case "unimpaired run is quiet" `Quick test_unimpaired_run_is_quiet;
          Alcotest.test_case "pool churn: no orphan resurrection" `Quick
            test_churn_no_resurrection;
          Alcotest.test_case "every divergence kind" `Quick test_every_divergence_kind;
          QCheck_alcotest.to_alcotest prop_divergence_differential ] ) ]
