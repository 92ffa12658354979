(* Tests for Scotch_switch: flow tables, group tables, the OFA queueing
   model and the full switch pipeline. *)

open Scotch_switch
open Scotch_openflow
open Scotch_packet
module Admission = Scotch_util.Admission

let mk_packet ?(flow_id = 1) ?(src = Ipv4_addr.make 10 0 0 1) ?(dst = Ipv4_addr.make 10 0 0 2)
    ?(src_port = 1234) ?(dst_port = 80) () =
  Packet.tcp_syn ~flow_id ~created:0.0 ~src_mac:(Mac.of_host_id 1)
    ~dst_mac:(Mac.of_host_id 2) ~ip_src:src ~ip_dst:dst ~src_port ~dst_port ()

let ctx ?tunnel_id ?(in_port = 1) pkt = Of_match.context ?tunnel_id ~in_port pkt

(* A lookup's answer as an option: [None] for a miss's
   [Flow_table.no_rule]. *)
let hit r = if r == Flow_table.no_rule then None else Some r

(* The table and classifier lookups of a context's packet. *)
let lookup table ~now (c : Of_match.context) =
  hit
    (Flow_table.lookup table ~now ~in_port:c.Of_match.in_port ~tunnel_id:c.Of_match.tunnel_id
       c.Of_match.packet)

let peek table ~now c = hit (Flow_table.peek table ~now c)

let classify cl ~now (c : Of_match.context) =
  hit
    (Classifier.lookup cl ~now ~in_port:c.Of_match.in_port ~tunnel_id:c.Of_match.tunnel_id
       c.Of_match.packet)

let out_port p = Of_action.output (Of_types.Port_no.Physical p)

(* ------------------------------------------------------------------ *)
(* Flow_table *)

let insert_ok table ~now ~priority ~match_ ~instructions =
  match
    Flow_table.insert table ~now ~priority ~match_ ~instructions ~idle_timeout:0.0
      ~hard_timeout:0.0 ~cookie:0L
  with
  | Ok () -> ()
  | Error `Table_full -> Alcotest.fail "unexpected table full"

let test_ft_priority_order () =
  let table = Flow_table.create ~table_id:0 () in
  insert_ok table ~now:0.0 ~priority:1 ~match_:Of_match.wildcard ~instructions:(out_port 1);
  insert_ok table ~now:0.0 ~priority:10
    ~match_:(Of_match.exact_flow (Packet.flow_key (mk_packet ())))
    ~instructions:(out_port 2);
  match lookup table ~now:0.0 (ctx (mk_packet ())) with
  | Some r -> Alcotest.(check int) "high priority wins" 10 r.Flow_table.priority
  | None -> Alcotest.fail "no match"

let test_ft_exact_and_wildcard_buckets () =
  let table = Flow_table.create ~table_id:0 () in
  (* same priority: an exact rule and a dst-only rule, two subtables *)
  insert_ok table ~now:0.0 ~priority:5
    ~match_:(Of_match.exact_flow (Packet.flow_key (mk_packet ())))
    ~instructions:(out_port 1);
  insert_ok table ~now:0.0 ~priority:5
    ~match_:(Of_match.with_ip_dst (Ipv4_addr.make 10 0 0 3) Of_match.wildcard)
    ~instructions:(out_port 2);
  (match lookup table ~now:0.0 (ctx (mk_packet ())) with
  | Some r ->
    Alcotest.(check bool) "exact rule found" true
      (r.Flow_table.instructions = out_port 1)
  | None -> Alcotest.fail "exact miss");
  match
    lookup table ~now:0.0 (ctx (mk_packet ~dst:(Ipv4_addr.make 10 0 0 3) ()))
  with
  | Some r ->
    Alcotest.(check bool) "dst-only rule found" true (r.Flow_table.instructions = out_port 2)
  | None -> Alcotest.fail "dst-only miss"

let test_ft_replace_preserves_counters () =
  let table = Flow_table.create ~table_id:0 () in
  let m = Of_match.exact_flow (Packet.flow_key (mk_packet ())) in
  insert_ok table ~now:0.0 ~priority:5 ~match_:m ~instructions:(out_port 1);
  ignore (lookup table ~now:0.1 (ctx (mk_packet ())));
  insert_ok table ~now:0.2 ~priority:5 ~match_:m ~instructions:(out_port 2);
  Alcotest.(check int) "single rule" 1 (Flow_table.size table ~now:0.2);
  match lookup table ~now:0.3 (ctx (mk_packet ())) with
  | Some r ->
    Alcotest.(check bool) "new actions" true (r.Flow_table.instructions = out_port 2);
    Alcotest.(check int) "counter preserved + this hit" 2 r.Flow_table.packet_count
  | None -> Alcotest.fail "miss after replace"

let test_ft_hard_timeout () =
  let table = Flow_table.create ~table_id:0 () in
  (match
     Flow_table.insert table ~now:0.0 ~priority:5
       ~match_:(Of_match.exact_flow (Packet.flow_key (mk_packet ())))
       ~instructions:(out_port 1) ~idle_timeout:0.0 ~hard_timeout:10.0 ~cookie:0L
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "insert");
  Alcotest.(check bool) "live at 9.9" true
    (lookup table ~now:9.9 (ctx (mk_packet ())) <> None);
  Alcotest.(check bool) "expired at 10" true
    (lookup table ~now:10.0 (ctx (mk_packet ())) = None);
  Alcotest.(check int) "size sweeps" 0 (Flow_table.size table ~now:10.0)

let test_ft_idle_timeout () =
  let table = Flow_table.create ~table_id:0 () in
  (match
     Flow_table.insert table ~now:0.0 ~priority:5
       ~match_:(Of_match.exact_flow (Packet.flow_key (mk_packet ())))
       ~instructions:(out_port 1) ~idle_timeout:2.0 ~hard_timeout:0.0 ~cookie:0L
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "insert");
  (* traffic keeps the rule alive *)
  Alcotest.(check bool) "hit at 1.5" true
    (lookup table ~now:1.5 (ctx (mk_packet ())) <> None);
  Alcotest.(check bool) "hit at 3.0 (refreshed)" true
    (lookup table ~now:3.0 (ctx (mk_packet ())) <> None);
  (* then idles out *)
  Alcotest.(check bool) "expired at 5.5" true
    (lookup table ~now:5.5 (ctx (mk_packet ())) = None)

let test_ft_capacity () =
  let table = Flow_table.create ~capacity:2 ~table_id:0 () in
  insert_ok table ~now:0.0 ~priority:5
    ~match_:(Of_match.exact_flow (Packet.flow_key (mk_packet ~src_port:1 ())))
    ~instructions:(out_port 1);
  insert_ok table ~now:0.0 ~priority:5
    ~match_:(Of_match.exact_flow (Packet.flow_key (mk_packet ~src_port:2 ())))
    ~instructions:(out_port 1);
  (match
     Flow_table.insert table ~now:0.0 ~priority:5
       ~match_:(Of_match.exact_flow (Packet.flow_key (mk_packet ~src_port:3 ())))
       ~instructions:(out_port 1) ~idle_timeout:0.0 ~hard_timeout:0.0 ~cookie:0L
   with
  | Error `Table_full -> ()
  | Ok () -> Alcotest.fail "expected table full");
  Alcotest.(check int) "failure counted" 1 (Flow_table.insert_failures table)

let test_ft_capacity_after_expiry () =
  let table = Flow_table.create ~capacity:1 ~table_id:0 () in
  (match
     Flow_table.insert table ~now:0.0 ~priority:5
       ~match_:(Of_match.exact_flow (Packet.flow_key (mk_packet ~src_port:1 ())))
       ~instructions:(out_port 1) ~idle_timeout:0.0 ~hard_timeout:1.0 ~cookie:0L
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "insert");
  (* after expiry, the slot is reclaimable *)
  match
    Flow_table.insert table ~now:2.0 ~priority:5
      ~match_:(Of_match.exact_flow (Packet.flow_key (mk_packet ~src_port:2 ())))
      ~instructions:(out_port 1) ~idle_timeout:0.0 ~hard_timeout:0.0 ~cookie:0L
  with
  | Ok () -> ()
  | Error `Table_full -> Alcotest.fail "sweep should reclaim expired slot"

let test_ft_delete () =
  let table = Flow_table.create ~table_id:0 () in
  let m = Of_match.exact_flow (Packet.flow_key (mk_packet ())) in
  insert_ok table ~now:0.0 ~priority:5 ~match_:m ~instructions:(out_port 1);
  insert_ok table ~now:0.0 ~priority:7 ~match_:m ~instructions:(out_port 2);
  Alcotest.(check int) "delete every priority" 2 (Flow_table.delete table ~match_:m);
  Alcotest.(check int) "empty" 0 (Flow_table.size table ~now:0.0);
  Alcotest.(check int) "delete again" 0 (Flow_table.delete table ~match_:m)

let test_ft_stats () =
  let table = Flow_table.create ~table_id:3 () in
  let m = Of_match.exact_flow (Packet.flow_key (mk_packet ())) in
  insert_ok table ~now:0.0 ~priority:5 ~match_:m ~instructions:(out_port 1);
  ignore (lookup table ~now:1.0 (ctx (mk_packet ())));
  ignore (lookup table ~now:2.0 (ctx (mk_packet ())));
  match Flow_table.stats table ~now:4.0 with
  | [ s ] ->
    Alcotest.(check int) "packets" 2 s.Of_msg.Stats.packet_count;
    Alcotest.(check int) "bytes" (2 * Packet.size (mk_packet ())) s.Of_msg.Stats.byte_count;
    Alcotest.(check (float 1e-9)) "duration" 4.0 s.Of_msg.Stats.duration;
    Alcotest.(check int) "table id" 3 s.Of_msg.Stats.table_id
  | l -> Alcotest.fail (Printf.sprintf "expected 1 stat, got %d" (List.length l))

let test_ft_peek_no_counters () =
  let table = Flow_table.create ~table_id:0 () in
  let m = Of_match.exact_flow (Packet.flow_key (mk_packet ())) in
  insert_ok table ~now:0.0 ~priority:5 ~match_:m ~instructions:(out_port 1);
  ignore (Flow_table.peek table ~now:0.0 (ctx (mk_packet ())));
  match Flow_table.stats table ~now:0.0 with
  | [ s ] -> Alcotest.(check int) "peek leaves counters" 0 s.Of_msg.Stats.packet_count
  | _ -> Alcotest.fail "stats"

(* Two matches that differ only in IP bits outside the mask are one
   rule: an insert replaces the other and a delete finds it, whether
   the match came from a builder or a record literal. *)
let test_ft_masked_bits_irrelevant () =
  let table = Flow_table.create ~table_id:0 () in
  let mask = Ipv4_addr.prefix_mask 24 in
  let built host = Of_match.with_ip_dst ~mask (Ipv4_addr.make 10 0 1 host) Of_match.wildcard in
  let literal host =
    { Of_match.wildcard with
      Of_match.ip_dst = Some { Of_match.value = Ipv4_addr.make 10 0 1 host; mask } }
  in
  insert_ok table ~now:0.0 ~priority:5 ~match_:(built 5) ~instructions:(out_port 1);
  insert_ok table ~now:0.0 ~priority:5 ~match_:(literal 7) ~instructions:(out_port 2);
  Alcotest.(check int) "one rule" 1 (Flow_table.size table ~now:0.0);
  (match peek table ~now:0.0 (ctx (mk_packet ~dst:(Ipv4_addr.make 10 0 1 9) ())) with
  | Some r -> Alcotest.(check bool) "replaced" true (r.Flow_table.instructions = out_port 2)
  | None -> Alcotest.fail "prefix rule missed");
  Alcotest.(check int) "delete finds it" 1 (Flow_table.delete table ~match_:(built 200));
  Alcotest.(check int) "empty" 0 (Flow_table.size table ~now:0.0)

(* qcheck: the tuple-space table against a list model, the reference
   implementation.  The model keeps every present rule (expired ones
   too, until a sweep reaps them); a lookup's answer is its first live
   matching rule, sorted as [live_rules] sorts: priority, then fields
   pinned, then structural match order. *)
type ft_op =
  | Ins of { prio : int; m : int; cookie : int; hard : float }
  | Del of int (* a match index *)
  | Advance (* one second passes *)
  | Sweep

let ft_pp_op = function
  | Ins { prio; m; cookie; hard } -> Printf.sprintf "ins p%d m%d c%d h%g" prio m cookie hard
  | Del m -> Printf.sprintf "del m%d" m
  | Advance -> "advance"
  | Sweep -> "sweep"

(* probe [k] is flow k: source port 1000+k towards 10.0.(k mod 2).(2+k) *)
let ft_probe_dst k = Ipv4_addr.make 10 0 (k mod 2) (2 + k)
let ft_probe k = mk_packet ~src_port:(1000 + k) ~dst:(ft_probe_dst k) ()

(* Flow 1 as a UDP datagram, and over protocol 50, whose ports read 0 *)
let ft_udp =
  Packet.udp_data ~payload_len:100 ~flow_id:1 ~created:0.0 ~src_mac:(Mac.of_host_id 1)
    ~dst_mac:(Mac.of_host_id 2) ~ip_src:(Ipv4_addr.make 10 0 0 1) ~ip_dst:(ft_probe_dst 1)
    ~src_port:1001 ~dst_port:80 ()

let ft_other = { (ft_probe 2) with Packet.l4 = Headers.L4.Other 50 }

(* Every probe context: the four flows on ports 1 and 2, then the UDP
   and protocol-50 packets, flow 1 under MPLS label 16 (alone and from
   tunnel 7) and flow 2 from tunnel 7. *)
let ft_contexts =
  List.concat_map (fun in_port -> List.init 4 (fun k -> ctx ~in_port (ft_probe k))) [ 1; 2 ]
  @ [ ctx ft_udp; ctx ~in_port:2 ft_other;
      ctx (Packet.push_encap (Headers.Encap.mpls 16) (ft_probe 1));
      ctx ~tunnel_id:7 ~in_port:2 (Packet.push_encap (Headers.Encap.mpls 16) (ft_probe 1));
      ctx ~tunnel_id:7 ~in_port:2 (ft_probe 2) ]

(* Exact, one-field, two-field, in_port, prefix-masked ip_dst,
   eth_type, MPLS and tunnel shapes, overlapping on the probes so
   same-priority ties are common. *)
let ft_matches =
  let w = Of_match.wildcard in
  let dst24 host = Of_match.with_ip_dst ~mask:(Ipv4_addr.prefix_mask 24) (Ipv4_addr.make 10 0 0 host) w in
  Array.of_list
    (List.init 4 (fun k -> Of_match.exact_flow (Packet.flow_key (ft_probe k)))
    @ List.init 4 (fun k -> Of_match.with_l4_src (1000 + k) w)
    @ [ Of_match.with_ip_proto Headers.Ipv4.proto_tcp w |> Of_match.with_l4_dst 80;
        Of_match.with_ip_proto Headers.Ipv4.proto_tcp w |> Of_match.with_l4_src 1001;
        Of_match.with_in_port 1 w;
        Of_match.with_in_port 2 w |> Of_match.with_l4_src 1002;
        dst24 0;
        dst24 77; (* the same rule as [dst24 0] *)
        { w with
          Of_match.ip_dst =
            Some { Of_match.value = Ipv4_addr.make 10 0 1 99; mask = Ipv4_addr.prefix_mask 24 } };
        Of_match.with_ip_dst ~mask:(Ipv4_addr.prefix_mask 16) (Ipv4_addr.make 10 0 5 5) w;
        Of_match.with_ip_dst (ft_probe_dst 3) w;
        Of_match.exact_flow (Packet.flow_key ft_udp);
        Of_match.with_ip_proto Headers.Ipv4.proto_udp w |> Of_match.with_l4_dst 80;
        Of_match.with_ip_proto 50 w |> Of_match.with_l4_src 0 |> Of_match.with_l4_dst 0;
        Of_match.with_eth_type Headers.Ethernet.ethertype_ipv4 w;
        Of_match.with_eth_type Headers.Ethernet.ethertype_mpls w;
        Of_match.with_mpls_label 16 w;
        Of_match.with_mpls_label 17 w;
        Of_match.with_tunnel_id 7 w;
        Of_match.with_in_port 2 w |> Of_match.with_tunnel_id 7;
        Of_match.with_in_port 1 w |> Of_match.with_tunnel_id 7 ])

type ft_model_rule = {
  mprio : int;
  mmatch : Of_match.t;
  mcookie : int;
  minstalled : float;
  mhard : float;
  mout : int; (* the inserting op's index, as the output port *)
}

let prop_ft_reference =
  let op_gen =
    QCheck.Gen.(
      frequency
        [ ( 6,
            map
              (fun (prio, m, cookie, hard) -> Ins { prio; m; cookie; hard })
              (quad (int_bound 2) (int_bound (Array.length ft_matches - 1)) (int_bound 1)
                 (oneofl [ 0.0; 0.0; 1.0; 2.5 ])) );
          ( 2,
            map (fun m -> Del m) (int_bound (Array.length ft_matches - 1)) );
          (1, return Advance);
          (1, return Sweep) ])
  in
  let gen = QCheck.Gen.(list_size (int_bound 40) op_gen) in
  let print ops = String.concat "; " (List.map ft_pp_op ops) in
  QCheck.Test.make ~name:"lookup agrees with naive reference" ~count:300
    (QCheck.make ~print gen) (fun ops ->
      let table = Flow_table.create ~table_id:0 () in
      let model = ref [] and now = ref 0.0 in
      let canon (m : Of_match.t) =
        let c = Option.map (fun { Of_match.value; mask } -> { Of_match.value = value land mask; mask }) in
        { m with Of_match.ip_src = c m.Of_match.ip_src; ip_dst = c m.Of_match.ip_dst }
      in
      let live r = not (r.mhard > 0.0 && !now -. r.minstalled >= r.mhard) in
      let order a b =
        match compare b.mprio a.mprio with
        | 0 -> (
          match compare (Of_match.specificity b.mmatch) (Of_match.specificity a.mmatch) with
          | 0 -> compare a.mmatch b.mmatch
          | c -> c)
        | c -> c
      in
      let sorted_live () = List.sort order (List.filter live !model) in
      (* the table's rule order: descending priority, then the order the
         priority's shapes were created in (a sweep drops the shapes it
         leaves empty), then install order, which [mout] follows *)
      let shapes = ref [] in
      let shape_of (m : Of_match.t) =
        let pin o = Option.map (fun _ -> 0) o in
        let ip = Option.map (fun (x : Of_match.masked) -> { x with Of_match.value = 0 }) in
        { Of_match.in_port = pin m.Of_match.in_port; eth_type = pin m.Of_match.eth_type;
          ip_src = ip m.Of_match.ip_src; ip_dst = ip m.Of_match.ip_dst;
          ip_proto = pin m.Of_match.ip_proto; l4_src = pin m.Of_match.l4_src;
          l4_dst = pin m.Of_match.l4_dst; mpls_label = pin m.Of_match.mpls_label;
          tunnel_id = pin m.Of_match.tunnel_id }
      in
      let shapes_of prio = Option.value ~default:[] (List.assoc_opt prio !shapes) in
      let note_shape prio m =
        let have = shapes_of prio in
        if not (List.mem (shape_of m) have) then
          shapes := (prio, have @ [ shape_of m ]) :: List.remove_assoc prio !shapes
      in
      let drop_empty_shapes () =
        shapes :=
          List.map
            (fun (prio, l) ->
              ( prio,
                List.filter
                  (fun sh -> List.exists (fun r -> r.mprio = prio && shape_of r.mmatch = sh) !model)
                  l ))
            !shapes
      in
      let rank r =
        let rec idx i = function
          | [] -> max_int
          | sh :: rest -> if sh = shape_of r.mmatch then i else idx (i + 1) rest
        in
        (-r.mprio, idx 0 (shapes_of r.mprio), r.mout)
      in
      let in_table_order rules = List.sort (fun a b -> compare (rank a) (rank b)) rules in
      let view r = (r.mprio, r.mmatch, out_port r.mout, Int64.of_int r.mcookie) in
      let of_rule (r : Flow_table.rule) =
        (r.Flow_table.priority, r.Flow_table.match_, r.Flow_table.instructions, r.Flow_table.cookie)
      in
      let removing pred =
        let gone, kept = List.partition pred !model in
        model := kept;
        List.length gone
      in
      let step i op =
        match op with
        | Ins { prio; m; cookie; hard } ->
          let mm = canon ft_matches.(m) in
          ignore (removing (fun r -> r.mprio = prio && r.mmatch = mm));
          note_shape prio mm;
          model :=
            { mprio = prio; mmatch = mm; mcookie = cookie; minstalled = !now; mhard = hard; mout = i }
            :: !model;
          Flow_table.insert table ~now:!now ~priority:prio ~match_:ft_matches.(m)
            ~instructions:(out_port i) ~idle_timeout:0.0 ~hard_timeout:hard
            ~cookie:(Int64.of_int cookie)
          = Ok ()
        | Del m ->
          let mm = canon ft_matches.(m) in
          let want = removing (fun r -> r.mmatch = mm) in
          Flow_table.delete table ~match_:ft_matches.(m) = want
        | Advance ->
          now := !now +. 1.0;
          true
        | Sweep ->
          let want = removing (fun r -> not (live r)) in
          drop_empty_shapes ();
          Flow_table.sweep table ~now:!now = want
      in
      let agrees () =
        let lookups_agree =
          List.for_all
            (fun c ->
              let want = List.find_opt (fun r -> Of_match.matches r.mmatch c) (sorted_live ()) in
              Option.map view want = Option.map of_rule (peek table ~now:!now c))
            ft_contexts
        in
        let rebuilt =
          let all = ref [] in
          Flow_table.iter_rules table (fun r -> all := r :: !all);
          Classifier.of_list (List.sort Classifier.precedence !all)
        in
        (* the verifier's expiry-blind lookup, through the table's own
           classifier and through one built from its rules as the audit
           builds one, sees expired rules too *)
        let blind_agree =
          List.for_all
            (fun c ->
              let want =
                Option.map view
                  (List.find_opt (fun r -> Of_match.matches r.mmatch c) (List.sort order !model))
              in
              want = Option.map of_rule (peek table ~now:neg_infinity c)
              && want = Option.map of_rule (classify rebuilt ~now:neg_infinity c))
            ft_contexts
        in
        let live_agree =
          List.map view (sorted_live ())
          = List.map of_rule (Flow_table.live_rules table ~now:!now)
        in
        let stats_agree =
          let of_stat (s : Of_msg.Stats.flow_stat) =
            (s.Of_msg.Stats.priority, s.Of_msg.Stats.match_, s.Of_msg.Stats.cookie)
          in
          List.map
            (fun r -> (r.mprio, r.mmatch, Int64.of_int r.mcookie))
            (in_table_order (List.filter live !model))
          = List.map of_stat (Flow_table.stats table ~now:!now)
        in
        (* the shadow pass's cover queries, for a rule of every probe
           priority and match shape, find what brute force over the
           model finds *)
        let covers_agree =
          let slots l = List.sort compare l in
          List.for_all
            (fun (prio, m) ->
              let q =
                { Flow_table.priority = prio; match_ = canon ft_matches.(m); instructions = [];
                  idle_timeout = 0.0; hard_timeout = 0.0; cookie = 0L; installed_at = 0.0;
                  last_used = 0.0; packet_count = 0; byte_count = 0 }
              in
              let query fold =
                slots
                  (fold
                     (fun (r : Flow_table.rule) acc ->
                       (r.Flow_table.priority, r.Flow_table.match_) :: acc)
                     rebuilt q [])
              in
              let brute keep =
                slots
                  (List.filter_map
                     (fun r -> if keep r then Some (r.mprio, r.mmatch) else None)
                     !model)
              in
              query Classifier.fold_covering
              = brute (fun r -> r.mprio > prio && Of_match.covers r.mmatch q.Flow_table.match_)
              && query Classifier.fold_covered
                 = brute (fun r -> r.mprio < prio && Of_match.covers q.Flow_table.match_ r.mmatch))
            (List.concat_map
               (fun prio -> List.init (Array.length ft_matches) (fun m -> (prio, m)))
               [ 0; 1; 2 ])
        in
        lookups_agree && blind_agree && live_agree && stats_agree && covers_agree
      in
      let rec run i = function
        | [] -> true
        | op :: rest -> step i op && agrees () && run (i + 1) rest
      in
      run 0 ops)

(* qcheck: [live_rules] order depends only on the rule set, not on the
   order the rules went in — same-priority, same-specificity ties
   included (three one-field match kinds over a few values make them
   common). *)
let prop_ft_live_rules_order =
  let rule_gen =
    QCheck.Gen.(
      map
        (fun (prio, kind, v) ->
          let m =
            match kind with
            | 0 -> Of_match.with_l4_src (1000 + v) Of_match.wildcard
            | 1 -> Of_match.with_l4_dst (2000 + v) Of_match.wildcard
            | 2 -> Of_match.with_ip_proto v Of_match.wildcard
            | _ -> Of_match.exact_flow (Packet.flow_key (mk_packet ~src_port:(1000 + v) ()))
          in
          (prio, m))
        (triple (int_bound 2) (int_bound 3) (int_bound 4)))
  in
  let gen =
    QCheck.Gen.(
      list_size (int_bound 30) rule_gen >>= fun rules ->
      let rules = List.sort_uniq compare rules in
      pair (shuffle_l rules) (shuffle_l rules))
  in
  QCheck.Test.make ~name:"live_rules order is independent of insertion order" ~count:200
    (QCheck.make gen) (fun (order_a, order_b) ->
      let live order =
        let table = Flow_table.create ~table_id:0 () in
        List.iter
          (fun (prio, m) ->
            ignore
              (Flow_table.insert table ~now:0.0 ~priority:prio ~match_:m
                 ~instructions:(out_port 1) ~idle_timeout:0.0 ~hard_timeout:0.0 ~cookie:0L))
          order;
        List.map
          (fun (r : Flow_table.rule) -> (r.Flow_table.priority, r.Flow_table.match_))
          (Flow_table.live_rules table ~now:0.0)
      in
      live order_a = live order_b)

(* qcheck: one shape's rules come back in install order from the
   classifier's [to_list] and from the table's flow stats, whatever the
   order they went in; a replaced rule moves to the end. *)
let prop_install_order =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 40) (int_bound 500) >>= fun l -> shuffle_l (List.sort_uniq compare l))
  in
  QCheck.Test.make ~name:"rules come back in install order" ~count:200
    (QCheck.make ~print:QCheck.Print.(list int) gen) (fun hosts ->
      let m host = Of_match.with_ip_dst (Ipv4_addr.of_int (0x0A000000 + host)) Of_match.wildcard in
      let rule host : Classifier.rule =
        { Classifier.priority = 10; match_ = m host; instructions = out_port 1; idle_timeout = 0.0;
          hard_timeout = 0.0; cookie = Int64.of_int host; installed_at = 0.0; last_used = 0.0;
          packet_count = 0; byte_count = 0 }
      in
      let c = Classifier.create () and table = Flow_table.create ~table_id:0 () in
      let put host =
        (match Classifier.find c ~priority:10 (m host) with
        | Some old -> Classifier.remove c old
        | None -> ());
        Classifier.add c (rule host);
        ignore
          (Flow_table.insert table ~now:0.0 ~priority:10 ~match_:(m host)
             ~instructions:(out_port 1) ~idle_timeout:0.0 ~hard_timeout:0.0
             ~cookie:(Int64.of_int host))
      in
      let agree order =
        List.map (fun (r : Classifier.rule) -> r.Classifier.cookie) (Classifier.to_list c)
        = List.map Int64.of_int order
        && List.map (fun (s : Of_msg.Stats.flow_stat) -> s.Of_msg.Stats.cookie)
             (Flow_table.stats table ~now:0.0)
           = List.map Int64.of_int order
      in
      List.iter put hosts;
      let in_order = agree hosts in
      let first = List.hd hosts in
      put first;
      in_order && agree (List.tl hosts @ [ first ]))

(* 1000 exact rules that differ only in ip_dst.  The stdlib's generic
   hash reads a key's first ten meaningful words, which a rule's slot,
   (priority, match), uses up before ip_dst's value: every one of these
   slots hashes alike.  The classifier's own hash mixes every pinned
   field, so no probe for one of them runs long. *)
let test_classifier_hash_spread () =
  let rules =
    List.init 1000 (fun i ->
        let key =
          Packet.flow_key (mk_packet ~dst:(Ipv4_addr.of_int (0x0A010000 + i)) ~src_port:5000 ())
        in
        { Classifier.priority = 10; match_ = Of_match.exact_flow key; instructions = out_port 1;
          idle_timeout = 0.0; hard_timeout = 0.0; cookie = 0L; installed_at = 0.0;
          last_used = 0.0; packet_count = 0; byte_count = 0 })
  in
  let slot (r : Classifier.rule) = (r.Classifier.priority, r.Classifier.match_) in
  let stdlib = List.sort_uniq compare (List.map (fun r -> Hashtbl.hash (slot r)) rules) in
  Alcotest.(check int) "the stdlib hash sees one slot" 1 (List.length stdlib);
  let c = Classifier.create () in
  List.iter (Classifier.add c) rules;
  let longest = Classifier.longest_probe c in
  if longest > 8 then Alcotest.failf "longest probe %d slots, over 8" longest;
  let built = Classifier.of_list rules in
  let longest = Classifier.longest_probe built in
  if longest > 8 then Alcotest.failf "of_list: longest probe %d slots, over 8" longest

(* A lookup allocates nothing: over 10k lookups into a table of exact,
   wildcard, /24, MPLS and tunnel shapes, neither a miss, which returns
   the [vacant] sentinel, nor a hit allocates a word. *)
let test_classifier_lookup_allocation () =
  let c = Classifier.create () in
  let add ?(hard_timeout = 0.0) priority match_ =
    Classifier.add c
      { Classifier.priority; match_; instructions = out_port 1; idle_timeout = 0.0; hard_timeout;
        cookie = 0L; installed_at = 0.0; last_used = 0.0; packet_count = 0; byte_count = 0 }
  in
  let w = Of_match.wildcard in
  for i = 0 to 99 do
    add 10 (Of_match.exact_flow (Packet.flow_key (mk_packet ~src_port:(2000 + i) ())))
  done;
  add 8 (Of_match.with_ip_dst ~mask:(Ipv4_addr.prefix_mask 24) (Ipv4_addr.make 10 0 9 0) w);
  add 8 (Of_match.with_mpls_label 16 w);
  add 8 (Of_match.with_tunnel_id 7 w |> Of_match.with_in_port 2);
  (* expired at [now]: the miss probes its subtable and skips it *)
  add ~hard_timeout:1.0 0 w;
  let now = 5.0 in
  let per_lookup (context : Of_match.context) =
    let in_port = context.Of_match.in_port and tunnel_id = context.Of_match.tunnel_id in
    Minor.per_call 10_000 (fun () ->
        Classifier.lookup c ~now ~in_port ~tunnel_id context.Of_match.packet)
  in
  let miss =
    [ ctx (mk_packet ~src_port:3000 ());
      ctx ~tunnel_id:8 ~in_port:2 (Packet.push_encap (Headers.Encap.mpls 17) (mk_packet ())) ]
  and hit =
    [ ctx (mk_packet ~src_port:2050 ()); ctx (mk_packet ~dst:(Ipv4_addr.make 10 0 9 4) ());
      ctx (Packet.push_encap (Headers.Encap.mpls 16) (mk_packet ()));
      ctx ~tunnel_id:7 ~in_port:2 (mk_packet ()) ]
  in
  List.iter
    (fun context ->
      Alcotest.(check bool) "misses" true (classify c ~now context = None);
      let words = per_lookup context in
      if words > 0.0 then Alcotest.failf "a miss allocates %.4f words" words)
    miss;
  List.iter
    (fun context ->
      Alcotest.(check bool) "hits" true (classify c ~now context <> None);
      let words = per_lookup context in
      if words > 0.0 then Alcotest.failf "a hit allocates %.4f words" words)
    hit

(* ------------------------------------------------------------------ *)
(* Group_table *)

let mk_select_group () =
  let buckets =
    List.init 3 (fun i ->
        Of_msg.Group_mod.bucket [ Of_action.Output (Of_types.Port_no.Physical (100 + i)) ])
  in
  Of_msg.Group_mod.add_select ~group_id:1 ~buckets

let test_gt_add_modify_delete () =
  let gt = Group_table.create () in
  Alcotest.(check bool) "add" true (Group_table.apply gt (mk_select_group ()) = Ok ());
  Alcotest.(check bool) "duplicate add" true
    (Group_table.apply gt (mk_select_group ()) = Error `Group_exists);
  Alcotest.(check bool) "modify" true
    (Group_table.apply gt
       (Of_msg.Group_mod.modify_select ~group_id:1
          ~buckets:[ Of_msg.Group_mod.bucket [ Of_action.Pop_mpls ] ])
    = Ok ());
  Alcotest.(check bool) "modify unknown" true
    (Group_table.apply gt (Of_msg.Group_mod.modify_select ~group_id:9 ~buckets:[])
    = Error `Unknown_group);
  Alcotest.(check bool) "delete" true
    (Group_table.apply gt (Of_msg.Group_mod.delete ~group_id:1) = Ok ());
  Alcotest.(check int) "empty" 0 (Group_table.size gt)

(* OFPGC_MODIFY replaces the whole bucket list. *)
let test_gt_modify_replaces_buckets () =
  let gt = Group_table.create () in
  ignore (Group_table.apply gt (mk_select_group ()));
  let buckets = [ Of_msg.Group_mod.bucket [ Of_action.Pop_mpls ] ] in
  Alcotest.(check bool) "modify" true
    (Group_table.apply gt (Of_msg.Group_mod.modify_select ~group_id:1 ~buckets) = Ok ());
  Alcotest.(check bool) "buckets replaced" true
    (Group_table.find gt 1 = Some { Group_table.group_id = 1; buckets })

let test_gt_rejects_bad_buckets () =
  let gt = Group_table.create () in
  Alcotest.(check bool) "add with no buckets" true
    (Group_table.apply gt (Of_msg.Group_mod.add_select ~group_id:1 ~buckets:[])
    = Error `Empty_buckets);
  Alcotest.(check int) "nothing installed" 0 (Group_table.size gt);
  Alcotest.(check bool) "good add" true (Group_table.apply gt (mk_select_group ()) = Ok ());
  Alcotest.(check bool) "modify to no buckets" true
    (Group_table.apply gt (Of_msg.Group_mod.modify_select ~group_id:1 ~buckets:[])
    = Error `Empty_buckets);
  (match Group_table.find gt 1 with
  | None -> Alcotest.fail "group vanished"
  | Some g ->
    Alcotest.(check int) "rejected modify left buckets intact" 3
      (List.length g.Group_table.buckets))

let test_gt_select_deterministic () =
  let gt = Group_table.create () in
  ignore (Group_table.apply gt (mk_select_group ()));
  match Group_table.find gt 1 with
  | None -> Alcotest.fail "group missing"
  | Some g ->
    let b1 = Group_table.select g ~flow_hash:12345 in
    let b2 = Group_table.select g ~flow_hash:12345 in
    Alcotest.(check bool) "same flow same bucket" true (b1 == b2);
    Alcotest.(check bool) "bucket flow_hash mod n" true (b1 == List.nth g.Group_table.buckets 0)

(* qcheck: select-group shares survive pool churn.  After any
   sequence of member add / remove / breaker-eject cycles (each
   re-asserting the bucket list, as Scotch's rebalance does), the hash
   distribution over a full cycle gives every live member exactly an
   equal share and an ejected member never receives a flow. *)
let prop_gt_churn_weights =
  let op_gen =
    QCheck.Gen.(
      frequency
        [ (3, return `Add);
          (2, map (fun i -> `Remove i) (int_bound 40));
          (2, map (fun i -> `Eject i) (int_bound 40)) ])
  in
  let gen = QCheck.Gen.(list_size (int_range 1 25) op_gen) in
  QCheck.Test.make ~name:"select weights survive churn, ejected buckets get nothing"
    ~count:100 (QCheck.make gen) (fun ops ->
      let gt = Group_table.create () in
      let bucket_of port =
        Of_msg.Group_mod.bucket [ Of_action.Output (Of_types.Port_no.Physical port) ]
      in
      (* a two-member active pool to start; fresh ports for joiners *)
      let live = ref [ 100; 101 ] in
      let benched = ref [] in
      let next_port = ref 102 in
      ignore
        (Group_table.apply gt
           (Of_msg.Group_mod.add_select ~group_id:1 ~buckets:(List.map bucket_of !live)));
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | `Add ->
            live := !live @ [ !next_port ];
            incr next_port
          | `Remove i when List.length !live > 1 ->
            live := List.filteri (fun j _ -> j <> i mod List.length !live) !live
          | `Eject i when List.length !live > 1 ->
            let k = i mod List.length !live in
            benched := List.nth !live k :: !benched;
            live := List.filteri (fun j _ -> j <> k) !live
          | `Remove _ | `Eject _ -> () (* never empty the pool *));
          if Group_table.apply gt
               (Of_msg.Group_mod.modify_select ~group_id:1
                  ~buckets:(List.map bucket_of !live))
             <> Ok ()
          then ok := false
          else
            match Group_table.find gt 1 with
            | None -> ok := false
            | Some g ->
              let counts = Hashtbl.create 8 in
              for h = 0 to (50 * List.length !live) - 1 do
                match (Group_table.select g ~flow_hash:h).Of_msg.Group_mod.actions with
                | [ Of_action.Output (Of_types.Port_no.Physical p) ] ->
                  Hashtbl.replace counts p
                    (1 + Option.value ~default:0 (Hashtbl.find_opt counts p))
                | _ -> ok := false
              done;
              (* exact equal share for every live member *)
              List.iter
                (fun p ->
                  if Option.value ~default:0 (Hashtbl.find_opt counts p) <> 50 then ok := false)
                !live;
              (* an ejected or removed member gets nothing *)
              List.iter
                (fun p -> if (not (List.mem p !live)) && Hashtbl.mem counts p then ok := false)
                !benched)
        ops;
      !ok)

(* qcheck: per-tenant select-group shares stay exact under pool churn.
   Weighted tenant shares are apportioned over the live pool by
   largest remainder and realised as one weight-1-bucket select group
   per tenant over its contiguous slice (how Scotch builds the
   overlay's tenant groups).  After any add/remove sequence the slices
   partition the pool exactly — allocations sum to the pool size,
   every tenant keeps >= 1 member whenever the pool is big enough —
   and each tenant's group hashes flows uniformly over its own slice
   and never onto another tenant's member. *)
let prop_gt_tenant_shares =
  let op_gen =
    QCheck.Gen.(
      frequency [ (3, return `Add); (2, map (fun i -> `Remove i) (int_bound 40)) ])
  in
  let gen =
    QCheck.Gen.(
      pair (list_size (int_range 2 4) (int_range 1 4)) (list_size (int_range 1 20) op_gen))
  in
  QCheck.Test.make ~name:"tenant select shares exact under churn" ~count:100
    (QCheck.make gen) (fun (shares, ops) ->
      let shares = List.mapi (fun i w -> (i, w)) shares in
      let ntenants = List.length shares in
      let gt = Group_table.create () in
      let pool = ref [ 100; 101; 102; 103 ] in
      let next_port = ref 104 in
      let ok = ref true in
      let check () =
        let slots = List.length !pool in
        let counts = Scotch_core.Tenant.apportion ~slots ~shares in
        if List.fold_left (fun acc (_, c) -> acc + c) 0 counts <> slots then ok := false;
        if slots >= ntenants && List.exists (fun (_, c) -> c < 1) counts then ok := false;
        (* deal contiguous slices in share order, one group per tenant *)
        let rec deal remaining = function
          | [] -> if remaining <> [] then ok := false
          | (tenant, c) :: more ->
            let rec take n xs =
              if n = 0 then ([], xs)
              else
                match xs with
                | [] -> ([], [])
                | x :: tl ->
                  let a, b = take (n - 1) tl in
                  (x :: a, b)
            in
            let slice, rest = take c remaining in
            if slice <> [] then begin
              let buckets =
                List.map
                  (fun p ->
                    Of_msg.Group_mod.bucket [ Of_action.Output (Of_types.Port_no.Physical p) ])
                  slice
              in
              let mod_ =
                if Group_table.find gt tenant = None then
                  Of_msg.Group_mod.add_select ~group_id:tenant ~buckets
                else Of_msg.Group_mod.modify_select ~group_id:tenant ~buckets
              in
              if Group_table.apply gt mod_ <> Ok () then ok := false
              else
                match Group_table.find gt tenant with
                | None -> ok := false
                | Some g ->
                  let n = List.length slice in
                  let hits = Hashtbl.create 8 in
                  for h = 0 to (20 * n) - 1 do
                    match (Group_table.select g ~flow_hash:h).Of_msg.Group_mod.actions with
                    | [ Of_action.Output (Of_types.Port_no.Physical p) ] ->
                      Hashtbl.replace hits p
                        (1 + Option.value ~default:0 (Hashtbl.find_opt hits p))
                    | _ -> ok := false
                  done;
                  (* weight-1 buckets: exactly uniform over the slice,
                     nothing for anyone outside it *)
                  List.iter
                    (fun p ->
                      if Option.value ~default:0 (Hashtbl.find_opt hits p) <> 20 then
                        ok := false)
                    slice;
                  if Hashtbl.length hits <> n then ok := false
            end;
            deal rest more
        in
        deal !pool counts
      in
      check ();
      List.iter
        (fun op ->
          (match op with
          | `Add ->
            pool := !pool @ [ !next_port ];
            incr next_port
          | `Remove i when List.length !pool > ntenants ->
            pool := List.filteri (fun j _ -> j <> i mod List.length !pool) !pool
          | `Remove _ -> ());
          check ())
        ops;
      !ok)

(* ------------------------------------------------------------------ *)
(* The flow-stats reply *)

(* The reference reply: each requested table's stats, concatenated,
   then filtered by the request's match. *)
let flow_stats_reference sw ~now (req : Of_msg.Stats.flow_stats_request) =
  Array.to_list (Switch.tables sw)
  |> List.concat_map (fun table ->
         if
           req.Of_msg.Stats.table_id = Of_msg.Stats.all_tables
           || Flow_table.table_id table = req.Of_msg.Stats.table_id
         then Flow_table.stats table ~now
         else [])
  |> List.filter (fun (fs : Of_msg.Stats.flow_stat) ->
         Of_match.selects req.Of_msg.Stats.match_ fs.Of_msg.Stats.match_)

(* Both tables hold random rules of every shape of [ft_matches], some
   expired at the request's time (engine time 0) and some aged; the
   request names either table, a table the switch lacks or all of
   them, and selects with a wildcard or any of those shapes.  The
   handler's reply is the reference's, record for record and in order,
   so the channel charges it the same bytes. *)
let prop_flow_stats_reply =
  let n = Array.length ft_matches in
  let rule_gen =
    QCheck.Gen.(
      map
        (fun ((table, prio, m, cookie), (age, expired)) -> (table, prio, m, cookie, age, expired))
        (pair
           (quad (int_bound 1) (int_bound 2) (int_bound (n - 1)) (int_bound 2))
           (pair (oneofl [ 0.0; 0.5; 3.0 ]) bool)))
  in
  let req_gen =
    QCheck.Gen.(
      pair
        (oneofl [ 0; 1; 2; Of_msg.Stats.all_tables ])
        (opt ~ratio:0.7 (int_bound (n - 1))))
  in
  let gen =
    QCheck.Gen.(pair (list_size (int_bound 60) rule_gen) (list_size (int_range 1 4) req_gen))
  in
  QCheck.Test.make ~name:"flow-stats reply agrees with concat and filter" ~count:300
    (QCheck.make gen) (fun (rules, reqs) ->
      let e = Scotch_sim.Engine.create () in
      let sw = Switch.create e ~dpid:1 ~name:"s" ~profile:Profile.pica8 () in
      List.iter
        (fun (table, priority, m, cookie, age, expired) ->
          match
            Flow_table.insert (Switch.table sw table) ~now:(-.age) ~priority
              ~match_:ft_matches.(m) ~instructions:(out_port 1) ~idle_timeout:0.0
              ~hard_timeout:(if expired then age else 0.0) ~cookie:(Int64.of_int cookie)
          with
          | Ok () | Error `Table_full -> ())
        rules;
      List.for_all
        (fun (table_id, select) ->
          let match_ = match select with None -> Of_match.wildcard | Some m -> ft_matches.(m) in
          let req = { Of_msg.Stats.table_id; match_ } in
          let got = Switch.flow_stats sw req
          and want = flow_stats_reference sw ~now:(Scotch_sim.Engine.now e) req in
          let size stats = Of_wire.size (Of_msg.make ~xid:0 (Of_msg.Flow_stats_reply stats)) in
          got = want && size got = size want)
        reqs)

(* The handler allocates each record once: its cons cell (3 words),
   the record (8) and the boxed duration (2), 13 words, plus a constant
   per request; a copy of the list would add 3 words a record. *)
let test_flow_stats_allocation () =
  let sw =
    Switch.create (Scotch_sim.Engine.create ()) ~dpid:1 ~name:"s" ~profile:Profile.pica8 ()
  in
  let rules = 2000 in
  for i = 0 to rules - 1 do
    let key = Packet.flow_key (mk_packet ~dst:(Ipv4_addr.of_int (0x0A010000 + i)) ()) in
    ignore
      (Switch.install_direct sw ~table_id:(i land 1) ~priority:10 ~match_:(Of_match.exact_flow key)
         ~instructions:(out_port 1) ())
  done;
  let req = { Of_msg.Stats.table_id = Of_msg.Stats.all_tables; match_ = Of_match.wildcard } in
  Alcotest.(check int) "every rule reported" rules (List.length (Switch.flow_stats sw req));
  let reply = ref [] in
  let words = Minor.words (fun () -> reply := Switch.flow_stats sw req) in
  Alcotest.(check int) "still every rule" rules (List.length !reply);
  let bound = (13.0 *. float_of_int rules) +. 64.0 in
  if words > bound then
    Alcotest.failf "the reply allocates %.0f words for %d records, over %.0f" words rules bound

(* ------------------------------------------------------------------ *)
(* OFA model *)

let quiet_profile =
  (* deterministic small numbers for unit tests *)
  { Profile.pica8 with
    Profile.packet_in_service = 0.010;
    flow_mod_service = 0.005;
    packet_out_service = 0.005;
    ofa_queue_capacity = 2;
    pin_queue_capacity = 3;
    housekeeping_period = 0.0;
    housekeeping_duration = 0.0;
    tcam_write_stall = 0.0;
    tcam_reject_stall = 0.0 }

let test_ofa_pin_rate_cap () =
  let e = Scotch_sim.Engine.create () in
  let sw = Switch.create e ~dpid:1 ~name:"s" ~profile:quiet_profile () in
  let ofa = Switch.ofa sw in
  let received = ref 0 in
  Ofa.connect_controller ofa (fun _ -> incr received);
  (* 10 new-flow packets at once; pin queue holds 3 *)
  for i = 1 to 10 do
    Ofa.submit_packet_in ofa
      { Ofa.in_port = 1; tunnel_id = None; reason = Of_types.Packet_in_reason.No_match;
        packet = mk_packet ~flow_id:i () }
  done;
  Scotch_sim.Engine.run e;
  (* 1 in service + 3 queued = 4 emitted; 6 dropped *)
  Alcotest.(check int) "emitted" 4 !received;
  Alcotest.(check int) "dropped" 6 (Ofa.counters ofa).Ofa.pin_dropped

let test_ofa_cmsg_priority () =
  let e = Scotch_sim.Engine.create () in
  let sw = Switch.create e ~dpid:1 ~name:"s" ~profile:quiet_profile () in
  let ofa = Switch.ofa sw in
  let order = ref [] in
  Ofa.connect_controller ofa (fun msg ->
      order := Of_msg.kind_name msg :: !order);
  Ofa.submit_packet_in ofa
    { Ofa.in_port = 1; tunnel_id = None; reason = Of_types.Packet_in_reason.No_match;
      packet = mk_packet () };
  Ofa.submit_packet_in ofa
    { Ofa.in_port = 1; tunnel_id = None; reason = Of_types.Packet_in_reason.No_match;
      packet = mk_packet ~flow_id:2 () };
  (* echo arrives after the pins but is served before the SECOND pin
     (controller messages have strict priority once the server frees) *)
  Ofa.deliver_message ofa (Of_msg.make ~xid:1 Of_msg.Echo_request);
  Scotch_sim.Engine.run e;
  Alcotest.(check (list string)) "priority order"
    [ "PACKET_IN"; "ECHO_REPLY"; "PACKET_IN" ]
    (List.rev !order)

let test_ofa_dead () =
  let e = Scotch_sim.Engine.create () in
  let sw = Switch.create e ~dpid:1 ~name:"s" ~profile:quiet_profile () in
  let ofa = Switch.ofa sw in
  let received = ref 0 in
  Ofa.connect_controller ofa (fun _ -> incr received);
  Ofa.set_dead ofa true;
  Alcotest.(check bool) "is_dead" true (Ofa.is_dead ofa);
  Ofa.deliver_message ofa (Of_msg.make ~xid:1 Of_msg.Echo_request);
  Ofa.submit_packet_in ofa
    { Ofa.in_port = 1; tunnel_id = None; reason = Of_types.Packet_in_reason.No_match;
      packet = mk_packet () };
  Scotch_sim.Engine.run e;
  Alcotest.(check int) "silent" 0 !received

let test_ofa_housekeeping_stall () =
  let profile =
    { quiet_profile with
      Profile.housekeeping_period = 1.0;
      housekeeping_duration = 0.1;
      flow_mod_service = 0.001;
      ofa_queue_capacity = 100 }
  in
  let e = Scotch_sim.Engine.create () in
  (* dpid 0: housekeeping phase 0, so the stall windows sit at [k, k+0.1) *)
  let sw = Switch.create e ~dpid:0 ~name:"s" ~profile () in
  let ofa = Switch.ofa sw in
  (* a flow-mod arriving inside the stall window completes only after it *)
  Scotch_sim.Engine.schedule_at e ~at:1.02 (fun () ->
      Ofa.deliver_message ofa
        (Of_msg.make ~xid:1
           (Of_msg.Flow_mod
              (Of_msg.Flow_mod.add ~match_:Of_match.wildcard
                 ~instructions:(out_port 1) ()))));
  Scotch_sim.Engine.run e;
  Alcotest.(check bool) "finished after stall" true (Scotch_sim.Engine.now e >= 1.1 +. 0.001)

(* The agent's Packet-In port numbers, in emission order. *)
let record_pin_ports ofa =
  let ports = ref [] in
  Ofa.connect_controller ofa (fun msg ->
      match msg.Of_msg.payload with
      | Of_msg.Packet_in pi -> ports := pi.Of_msg.Packet_in.in_port :: !ports
      | _ -> ());
  fun () -> List.rev !ports

let submit_pin ofa port =
  Ofa.submit_packet_in ofa
    { Ofa.in_port = port; tunnel_id = None; reason = Of_types.Packet_in_reason.No_match;
      packet = mk_packet ~flow_id:port () }

(* Drop-oldest on an untenanted agent: with the agent stalled and the
   pin queue full, one more submission evicts the queued head (never
   emitted) and takes its slot. *)
let test_ofa_pin_drop_oldest () =
  let e = Scotch_sim.Engine.create () in
  let sw = Switch.create e ~dpid:1 ~name:"s" ~profile:quiet_profile () in
  let ofa = Switch.ofa sw in
  let emitted = record_pin_ports ofa in
  Ofa.set_pin_policy ofa Admission.Drop_oldest;
  Ofa.stall ofa ~until:1.0;
  (* job 1 enters service (finishing after the stall); 2-4 fill the queue of 3 *)
  List.iter (submit_pin ofa) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "queue full" 3 (snd (Ofa.queue_depths ofa));
  Alcotest.(check int) "none dropped yet" 0 (Ofa.counters ofa).Ofa.pin_dropped;
  submit_pin ofa 5;
  Alcotest.(check int) "head evicted" 1 (Ofa.counters ofa).Ofa.pin_dropped;
  Alcotest.(check int) "still full" 3 (snd (Ofa.queue_depths ofa));
  Scotch_sim.Engine.run e;
  Alcotest.(check (list int)) "oldest queued job lost" [ 1; 3; 4; 5 ] (emitted ())

(* Pin deadline: jobs queued longer than the deadline are counted in
   [pin_expired], never emitted, and take no service slot — a fresh
   job queued behind them is served right after the job in service. *)
let test_ofa_pin_deadline () =
  let e = Scotch_sim.Engine.create () in
  let profile = { quiet_profile with Profile.pin_queue_capacity = 10 } in
  let sw = Switch.create e ~dpid:1 ~name:"s" ~profile () in
  let ofa = Switch.ofa sw in
  let emitted = record_pin_ports ofa in
  Ofa.set_pin_deadline ofa 0.1;
  Ofa.stall ofa ~until:1.0;
  (* job 1 is taken into service at once; 2-4 wait out the stall *)
  List.iter (submit_pin ofa) [ 1; 2; 3; 4 ];
  Scotch_sim.Engine.schedule_at e ~at:0.95 (fun () -> submit_pin ofa 5);
  Scotch_sim.Engine.run e;
  let c = Ofa.counters ofa in
  Alcotest.(check int) "expired" 3 c.Ofa.pin_expired;
  Alcotest.(check int) "none dropped" 0 c.Ofa.pin_dropped;
  Alcotest.(check (list int)) "stale jobs never emitted" [ 1; 5 ] (emitted ());
  (* the run ends as job 5 is emitted: two service times (each at most
     10.5 ms) after the stall, not five *)
  let finish = Scotch_sim.Engine.now e in
  Alcotest.(check bool) "no service slot burned" true (finish > 1.0 && finish < 1.025)

let test_profile_setup_rate () =
  let r = Profile.max_flow_setup_rate Profile.pica8 in
  Alcotest.(check bool) "pica8 ~135-145 flows/s" true (r > 130.0 && r < 150.0);
  Alcotest.(check bool) "ovs much faster" true
    (Profile.max_flow_setup_rate Profile.open_vswitch > 4000.0)

(* qcheck: per-tenant pin budgets are blast-radius isolation.  Under
   any interleaving of submissions from three tenants — one budgeted —
   with [Drop_oldest] shedding: the budgeted tenant never holds
   more queue slots than its budget, a submission moves no OTHER
   tenant's shed counter (eviction and budget refusal never cross the
   tenant boundary), the shared capacity is conserved, and per-tenant
   accounting closes — everything a tenant submitted is emitted as its
   own Packet-In or counted in its own shed total. *)
let prop_pin_tenant_isolation =
  let gen =
    QCheck.Gen.(pair (int_range 1 4) (list_size (int_range 1 40) (int_range 0 2)))
  in
  QCheck.Test.make ~name:"pin budgets shed only the offender" ~count:200 (QCheck.make gen)
    (fun (budget, submits) ->
      let e = Scotch_sim.Engine.create () in
      let profile = { quiet_profile with Profile.pin_queue_capacity = 5 } in
      let sw = Switch.create e ~dpid:1 ~name:"s" ~profile () in
      let ofa = Switch.ofa sw in
      let emitted = Array.make 3 0 in
      Ofa.connect_controller ofa (fun msg ->
          match msg.Of_msg.payload with
          | Of_msg.Packet_in pi ->
            let t = pi.Of_msg.Packet_in.in_port - 1 in
            emitted.(t) <- emitted.(t) + 1
          | _ -> ());
      Ofa.set_pin_policy ofa Admission.Drop_oldest;
      (* tenant = ingress port - 1: attribution the spoofed source
         address cannot influence *)
      Ofa.set_pin_tenant_classifier ofa (fun j -> j.Ofa.in_port - 1);
      let adm = Ofa.admission ofa in
      Admission.set_budget adm ~tenant:2 budget;
      let ok = ref true in
      let fid = ref 0 in
      List.iter
        (fun tenant ->
          let before = Array.init 3 (fun t -> Admission.shed adm ~tenant:t) in
          incr fid;
          Ofa.submit_packet_in ofa
            { Ofa.in_port = tenant + 1; tunnel_id = None;
              reason = Of_types.Packet_in_reason.No_match;
              packet = mk_packet ~flow_id:!fid () };
          for t = 0 to 2 do
            if t <> tenant && Admission.shed adm ~tenant:t <> before.(t) then ok := false
          done;
          if Admission.queued adm ~tenant:2 > budget then ok := false;
          let total_queued =
            Admission.queued adm ~tenant:0
            + Admission.queued adm ~tenant:1
            + Admission.queued adm ~tenant:2
          in
          if total_queued > profile.Profile.pin_queue_capacity then ok := false)
        submits;
      Scotch_sim.Engine.run e;
      for t = 0 to 2 do
        if Admission.submitted adm ~tenant:t
           <> emitted.(t) + Admission.shed adm ~tenant:t
        then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Switch pipeline *)

let fast_profile =
  { Profile.open_vswitch with Profile.forward_latency = 0.0; datapath_pps = 1e9 }

(* a switch whose port [p] records delivered packets *)
let switch_with_sink ?(profile = fast_profile) e ~sink_port =
  let sw = Switch.create e ~dpid:1 ~name:"dut" ~profile () in
  let delivered = ref [] in
  let link = Scotch_sim.Link.create e ~bandwidth_bps:1e12 ~latency:0.0 ~queue_capacity:1000 in
  Scotch_sim.Link.connect link (fun pkt -> delivered := pkt :: !delivered);
  Switch.add_port sw ~port_id:sink_port link;
  (sw, delivered)

let test_switch_forwarding () =
  let e = Scotch_sim.Engine.create () in
  let sw, delivered = switch_with_sink e ~sink_port:2 in
  (match
     Switch.install_direct sw ~table_id:0 ~priority:10
       ~match_:(Of_match.exact_flow (Packet.flow_key (mk_packet ())))
       ~instructions:(out_port 2) ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "install");
  Switch.receive sw ~in_port:1 (mk_packet ());
  Scotch_sim.Engine.run e;
  Alcotest.(check int) "delivered" 1 (List.length !delivered);
  Alcotest.(check int) "tx counter" 1 (Switch.counters sw).Switch.tx

(* A hop through a plain output rule allocates nothing: the lookup
   builds no context and returns the rule itself, and the egress stage
   and the link take the packet into their rings.  Each receive is
   measured alone; the engine runs the egress and link events between
   them. *)
let test_switch_receive_allocates_nothing () =
  let e = Scotch_sim.Engine.create () in
  let sw = Switch.create e ~dpid:1 ~name:"dut" ~profile:Profile.pica8 () in
  let link = Scotch_sim.Link.create e ~bandwidth_bps:1e9 ~latency:1e-6 ~queue_capacity:100 in
  Scotch_sim.Link.connect link ignore;
  Switch.add_port sw ~port_id:2 link;
  let pkt = mk_packet () in
  (match
     Switch.install_direct sw ~table_id:0 ~priority:10
       ~match_:(Of_match.exact_flow (Packet.flow_key pkt)) ~instructions:(out_port 2) ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "install");
  (* grow the rings and the engine's heap *)
  for _ = 1 to 16 do Switch.receive sw ~in_port:1 pkt done;
  Scotch_sim.Engine.run e;
  let words = ref 0.0 in
  for _ = 1 to 1000 do
    words := !words +. Minor.words (fun () -> Switch.receive sw ~in_port:1 pkt);
    Scotch_sim.Engine.run e
  done;
  Alcotest.(check (float 0.0)) "minor words" 0.0 !words;
  Alcotest.(check int) "delivered" 1016 (Scotch_sim.Link.delivered link)

let test_switch_miss_drops () =
  let e = Scotch_sim.Engine.create () in
  let sw, _ = switch_with_sink e ~sink_port:2 in
  Switch.receive sw ~in_port:1 (mk_packet ());
  Scotch_sim.Engine.run e;
  Alcotest.(check int) "miss dropped" 1 (Switch.counters sw).Switch.dropped_no_rule

let test_switch_goto_threads_packet () =
  (* regression: a label pushed in table 0 must be visible when table 1
     outputs the packet (the §5.2 two-table pipeline) *)
  let e = Scotch_sim.Engine.create () in
  let sw, delivered = switch_with_sink e ~sink_port:2 in
  (match
     Switch.install_direct sw ~table_id:0 ~priority:1
       ~match_:(Of_match.with_in_port 1 Of_match.wildcard)
       ~instructions:
         [ Of_action.Apply_actions [ Of_action.Push_mpls 7 ]; Of_action.Goto_table 1 ]
       ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "install t0");
  (match
     Switch.install_direct sw ~table_id:1 ~priority:0 ~match_:Of_match.wildcard
       ~instructions:(out_port 2) ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "install t1");
  Switch.receive sw ~in_port:1 (mk_packet ());
  Scotch_sim.Engine.run e;
  match !delivered with
  | [ pkt ] ->
    Alcotest.(check int) "label survived the goto" 7 (Packet.outer_mpls_label pkt)
  | _ -> Alcotest.fail "expected one delivery"

let test_switch_group_select_path () =
  let e = Scotch_sim.Engine.create () in
  let sw, d2 = switch_with_sink e ~sink_port:2 in
  let link3 = Scotch_sim.Link.create e ~bandwidth_bps:1e12 ~latency:0.0 ~queue_capacity:1000 in
  let d3 = ref [] in
  Scotch_sim.Link.connect link3 (fun pkt -> d3 := pkt :: !d3);
  Switch.add_port sw ~port_id:3 link3;
  (match
     Group_table.apply (Switch.group_table sw)
       (Of_msg.Group_mod.add_select ~group_id:1
          ~buckets:
            [ Of_msg.Group_mod.bucket [ Of_action.Output (Of_types.Port_no.Physical 2) ];
              Of_msg.Group_mod.bucket [ Of_action.Output (Of_types.Port_no.Physical 3) ] ])
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "group add");
  (match
     Switch.install_direct sw ~table_id:0 ~priority:0 ~match_:Of_match.wildcard
       ~instructions:[ Of_action.Apply_actions [ Of_action.Group 1 ] ]
       ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "install");
  (* 200 distinct flows spread over both buckets; same flow -> same bucket *)
  for i = 1 to 200 do
    Switch.receive sw ~in_port:1 (mk_packet ~flow_id:i ~src_port:(2000 + i) ())
  done;
  Scotch_sim.Engine.run e;
  let n2 = List.length !d2 and n3 = List.length !d3 in
  Alcotest.(check int) "all forwarded" 200 (n2 + n3);
  Alcotest.(check bool) "both buckets used" true (n2 > 40 && n3 > 40);
  (* resend one flow: must use the same bucket *)
  let probe = mk_packet ~src_port:2001 () in
  let before2 = List.length !d2 in
  Switch.receive sw ~in_port:1 probe;
  Switch.receive sw ~in_port:1 probe;
  Scotch_sim.Engine.run e;
  let after2 = List.length !d2 in
  Alcotest.(check bool) "sticky bucket" true (after2 = before2 || after2 = before2 + 2)

let test_switch_tunnel_encap_decap () =
  let e = Scotch_sim.Engine.create () in
  let a = Switch.create e ~dpid:1 ~name:"a" ~profile:fast_profile () in
  let b = Switch.create e ~dpid:2 ~name:"b" ~profile:fast_profile () in
  (* tunnel 77: a port 10077 -> b in-port 10077 *)
  let tun = Scotch_sim.Link.create e ~bandwidth_bps:1e12 ~latency:0.0 ~queue_capacity:100 in
  Scotch_sim.Link.connect tun (fun pkt -> Switch.receive b ~in_port:10077 pkt);
  Switch.add_port a ~port_id:10077 ~kind:(Switch.Tunnel 77) tun;
  Switch.add_input_port b ~port_id:10077 ~kind:(Switch.Tunnel 77) ();
  (* b: tunnel-id match forwards to sink port 5 *)
  let sink = Scotch_sim.Link.create e ~bandwidth_bps:1e12 ~latency:0.0 ~queue_capacity:100 in
  let out = ref [] in
  Scotch_sim.Link.connect sink (fun pkt -> out := pkt :: !out);
  Switch.add_port b ~port_id:5 sink;
  (match
     Switch.install_direct b ~table_id:0 ~priority:5
       ~match_:(Of_match.with_tunnel_id 77 Of_match.wildcard)
       ~instructions:(out_port 5) ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "install b");
  (* a: everything into the tunnel *)
  (match
     Switch.install_direct a ~table_id:0 ~priority:0 ~match_:Of_match.wildcard
       ~instructions:(out_port 10077) ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "install a");
  Switch.receive a ~in_port:1 (mk_packet ());
  Scotch_sim.Engine.run e;
  match !out with
  | [ pkt ] ->
    Alcotest.(check bool) "decapsulated at b" false (Packet.is_encapsulated pkt)
  | _ -> Alcotest.fail "tunnel delivery failed"

let test_switch_tcam_write_stall () =
  let profile = { fast_profile with Profile.tcam_write_stall = 0.5 } in
  let e = Scotch_sim.Engine.create () in
  let sw, delivered = switch_with_sink e ~profile ~sink_port:2 in
  (match
     Switch.install_direct sw ~table_id:0 ~priority:0 ~match_:Of_match.wildcard
       ~instructions:(out_port 2) ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "install");
  (* install a rule THROUGH the OFA to trigger the stall *)
  Ofa.deliver_message (Switch.ofa sw)
    (Of_msg.make ~xid:1
       (Of_msg.Flow_mod
          (Of_msg.Flow_mod.add ~priority:9
             ~match_:(Of_match.with_l4_dst 9999 Of_match.wildcard)
             ~instructions:(out_port 2) ())));
  (* packet arriving during the stall window is dropped *)
  Scotch_sim.Engine.schedule_at e ~at:0.1 (fun () -> Switch.receive sw ~in_port:1 (mk_packet ()));
  (* packet after the stall goes through *)
  Scotch_sim.Engine.schedule_at e ~at:1.0 (fun () ->
      Switch.receive sw ~in_port:1 (mk_packet ~flow_id:2 ())) ;
  Scotch_sim.Engine.run e;
  Alcotest.(check int) "one dropped by stall" 1 (Switch.counters sw).Switch.dropped_blocked;
  Alcotest.(check int) "one delivered" 1 (List.length !delivered)

let test_switch_failure_injection () =
  let e = Scotch_sim.Engine.create () in
  let sw, delivered = switch_with_sink e ~sink_port:2 in
  (match
     Switch.install_direct sw ~table_id:0 ~priority:0 ~match_:Of_match.wildcard
       ~instructions:(out_port 2) ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "install");
  Switch.set_failed sw true;
  Switch.receive sw ~in_port:1 (mk_packet ());
  Scotch_sim.Engine.run e;
  Alcotest.(check int) "nothing delivered" 0 (List.length !delivered);
  Switch.set_failed sw false;
  Switch.receive sw ~in_port:1 (mk_packet ~flow_id:2 ());
  Scotch_sim.Engine.run e;
  Alcotest.(check int) "recovered" 1 (List.length !delivered)

let test_switch_normal_ports () =
  let e = Scotch_sim.Engine.create () in
  let sw, _ = switch_with_sink e ~sink_port:2 in
  Switch.add_input_port sw ~port_id:9 ();
  Switch.add_input_port sw ~port_id:10042 ~kind:(Switch.Tunnel 42) ();
  Alcotest.(check (list int)) "normal ports" [ 2; 9 ] (Switch.normal_ports sw);
  Alcotest.(check (list int)) "all ports" [ 2; 9; 10042 ] (Switch.all_ports sw)

let test_switch_packet_out_via_ofa () =
  let e = Scotch_sim.Engine.create () in
  let sw, delivered = switch_with_sink e ~sink_port:2 in
  Ofa.deliver_message (Switch.ofa sw)
    (Of_msg.make ~xid:1
       (Of_msg.Packet_out
          { Of_msg.Packet_out.in_port = 1;
            actions = [ Of_action.Output (Of_types.Port_no.Physical 2) ];
            packet = mk_packet () }));
  Scotch_sim.Engine.run e;
  Alcotest.(check int) "packet out forwarded" 1 (List.length !delivered)

(* Every action kind through [Switch.receive] and a Packet-Out.  Each
   step clears the recorders, injects one packet, drains the engine and
   checks what left the switch: the port, encap stack (outermost first),
   eth addresses and IP TTL of every emitted packet, and the reason of
   every Packet-In.  The counters are checked once, at the end. *)
let test_switch_every_action () =
  let e = Scotch_sim.Engine.create () in
  let sw = Switch.create e ~dpid:1 ~name:"dut" ~profile:fast_profile () in
  let emitted = ref [] and pins = ref [] in
  let describe port (pkt : Packet.t) =
    Format.asprintf "%d:[%s] %s>%s ttl=%d" port
      (String.concat ";" (List.map (Format.asprintf "%a" Headers.Encap.pp) pkt.Packet.encaps))
      (Mac.to_string pkt.Packet.eth.Headers.Ethernet.src)
      (Mac.to_string pkt.Packet.eth.Headers.Ethernet.dst)
      pkt.Packet.ip.Headers.Ipv4.ttl
  in
  let attach ?kind port_id =
    let link =
      Scotch_sim.Link.create e ~bandwidth_bps:1e12 ~latency:0.0 ~queue_capacity:100
    in
    Scotch_sim.Link.connect link (fun pkt -> emitted := describe port_id pkt :: !emitted);
    Switch.add_port sw ~port_id ?kind link
  in
  List.iter (fun p -> attach p) [ 1; 2; 3 ];
  attach ~kind:(Switch.Tunnel 7) 10007;
  Switch.add_input_port sw ~port_id:4 ();
  Ofa.connect_controller (Switch.ofa sw) (fun msg ->
      match msg.Of_msg.payload with
      | Of_msg.Packet_in pi ->
        pins :=
          Format.asprintf "%a@%d" Of_types.Packet_in_reason.pp pi.Of_msg.Packet_in.reason
            pi.Of_msg.Packet_in.in_port
          :: !pins
      | _ -> ());
  let group gm =
    match Group_table.apply (Switch.group_table sw) gm with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "group add"
  in
  let out p = Of_action.Output (Of_types.Port_no.Physical p) in
  group
    (Of_msg.Group_mod.add_select ~group_id:1
       ~buckets:[ Of_msg.Group_mod.bucket [ out 2 ]; Of_msg.Group_mod.bucket [ out 3 ] ]);
  group
    (Of_msg.Group_mod.add_select ~group_id:2
       ~buckets:[ Of_msg.Group_mod.bucket [ Of_action.Push_mpls 9; out 3 ] ]);
  (* one rule per l4 destination port, so each step picks its rule *)
  let install ?(table_id = 0) dst instructions =
    match
      Switch.install_direct sw ~table_id ~priority:10
        ~match_:(Of_match.with_l4_dst dst Of_match.wildcard) ~instructions ()
    with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "install"
  in
  let apply actions = [ Of_action.Apply_actions actions ] in
  install 100 (apply [ out 2; out 1; out 42; out 4; out 10007 ]);
  install 101 (apply [ Of_action.Output Of_types.Port_no.In_port ]);
  install 102 (apply [ Of_action.Output Of_types.Port_no.All ]);
  install 103 (apply [ Of_action.Output Of_types.Port_no.Controller ]);
  install 104
    (apply [ Of_action.Output Of_types.Port_no.Local; Of_action.Output Of_types.Port_no.Any ]);
  install 105 (apply [ Of_action.Group 1 ]);
  install 106 (apply [ Of_action.Group 2; out 2 ]);
  install 107 (apply [ Of_action.Group 99; out 2 ]);
  install 108
    (apply
       [ Of_action.Push_mpls 5; out 2; Of_action.Pop_mpls; Of_action.Push_mpls 6;
         Of_action.Push_mpls 8; out 2; Of_action.Pop_mpls; out 3; Of_action.Pop_mpls;
         Of_action.Pop_mpls; out 3 ]);
  (* goto forward carries the pushed label; a backward goto is ignored;
     a goto past the last table is a no-rule drop *)
  install 111 [ Of_action.Apply_actions [ Of_action.Push_mpls 3 ]; Of_action.Goto_table 1 ];
  install ~table_id:1 111 (apply [ out 2 ]);
  install 112 [ Of_action.Apply_actions [ out 2 ]; Of_action.Goto_table 1 ];
  install ~table_id:1 112 [ Of_action.Apply_actions [ out 3 ]; Of_action.Goto_table 0 ];
  install 113 [ Of_action.Goto_table 5 ];
  install 114 [ Of_action.Goto_table 1 ];
  (match
     Switch.install_direct sw ~table_id:0 ~priority:0 ~match_:Of_match.wildcard
       ~instructions:Of_action.to_controller ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "install miss");
  let step ?(in_port = 1) name dst inject ~out:want_out ~pins:want_pins =
    emitted := [];
    pins := [];
    inject in_port (mk_packet ~flow_id:dst ~dst_port:dst ());
    Scotch_sim.Engine.run e;
    Alcotest.(check (list string)) (name ^ ": emitted") (List.sort compare want_out)
      (List.sort compare !emitted);
    Alcotest.(check (list string)) (name ^ ": packet-ins") want_pins (List.rev !pins)
  in
  let receive in_port pkt = Switch.receive sw ~in_port pkt in
  let host1 = Mac.to_string (Mac.of_host_id 1) and host2 = Mac.to_string (Mac.of_host_id 2) in
  let plain port = Printf.sprintf "%d:[] %s>%s ttl=64" port host1 host2 in
  let with_encaps port encaps = Printf.sprintf "%d:[%s] %s>%s ttl=64" port encaps host1 host2 in
  step "physical" 100 receive ~out:[ plain 2; with_encaps 10007 "mpls{7}" ] ~pins:[];
  step "in_port" 101 receive ~out:[ plain 1 ] ~pins:[];
  step ~in_port:50 "in_port missing" 101 receive ~out:[] ~pins:[];
  step "all" 102 receive ~out:[ plain 2; plain 3 ] ~pins:[];
  step "controller" 103 receive ~out:[] ~pins:[ "ACTION@1" ];
  step "local/any" 104 receive ~out:[] ~pins:[];
  step "select group" 105 receive ~out:[ plain 2 ] ~pins:[];
  step "group bucket, then the rest" 106 receive ~out:[ plain 2; with_encaps 3 "mpls{9}" ]
    ~pins:[];
  step "missing group" 107 receive ~out:[ plain 2 ] ~pins:[];
  step "push/pop" 108 receive
    ~out:[ plain 3; with_encaps 2 "mpls{5}"; with_encaps 2 "mpls{8};mpls{6}";
           with_encaps 3 "mpls{6}" ]
    ~pins:[];
  step "goto forward" 111 receive ~out:[ with_encaps 2 "mpls{3}" ] ~pins:[];
  step "goto backward" 112 receive ~out:[ plain 2; plain 3 ] ~pins:[];
  step "goto past last table" 113 receive ~out:[] ~pins:[];
  step "goto to a miss" 114 receive ~out:[] ~pins:[];
  step "table miss" 115 receive ~out:[] ~pins:[ "NO_MATCH@1" ];
  let packet_out in_port pkt =
    Ofa.deliver_message (Switch.ofa sw)
      (Of_msg.make ~xid:1
         (Of_msg.Packet_out
            { Of_msg.Packet_out.in_port;
              actions =
                [ Of_action.Push_mpls 4; out 3; Of_action.Output Of_types.Port_no.In_port;
                  Of_action.Group 1; Of_action.Output Of_types.Port_no.Controller; out 1 ];
              packet = pkt }))
  in
  step "packet-out" 116 packet_out
    ~out:[ with_encaps 1 "mpls{4}"; with_encaps 2 "mpls{4}"; with_encaps 3 "mpls{4}" ]
    ~pins:[ "ACTION@1" ];
  (* no-rule: the two gotos.  action: ports 42 and 4 (input-only) in
     "physical", port 4 again in the flood, the missing group, and
     Output In_port on the undeclared port 50 *)
  let c = Switch.counters sw in
  Alcotest.(check (list int)) "rx tx blocked capacity no-rule action"
    [ 15; 19; 0; 0; 2; 5 ]
    [ c.Switch.rx; c.Switch.tx; c.Switch.dropped_blocked; c.Switch.dropped_capacity;
      c.Switch.dropped_no_rule; c.Switch.dropped_action ]

(* ------------------------------------------------------------------ *)
(* The action interpreter against its reference *)

(* The interpreter as it stood before it read instructions in place:
   one [continue] closure per action, the actions collected with
   [Of_action.actions_of_instructions] and the goto found with
   [goto_of_instructions], and the select-group hash taken over a
   built flow key. *)
module Pipeline_ref (T : Pipeline.TARGET) = struct
  let pop_encap (p : Packet.t) =
    match p.Packet.encaps with [] -> None | e :: rest -> Some (e, { p with Packet.encaps = rest })

  let rec apply_actions t ~in_port ~tunnel_id ~via_miss pkt actions =
    match actions with
    | [] -> pkt
    | act :: rest ->
      let continue pkt = apply_actions t ~in_port ~tunnel_id ~via_miss pkt rest in
      (match act with
      | Of_action.Output (Of_types.Port_no.Physical p) ->
        if p <> in_port then T.emit t p pkt;
        continue pkt
      | Of_action.Output Of_types.Port_no.In_port ->
        T.emit t in_port pkt;
        continue pkt
      | Of_action.Output Of_types.Port_no.Controller ->
        let reason =
          if via_miss then Of_types.Packet_in_reason.No_match
          else Of_types.Packet_in_reason.Action
        in
        T.to_controller t ~in_port ~tunnel_id reason pkt;
        continue pkt
      | Of_action.Output Of_types.Port_no.All ->
        T.flood t ~in_port pkt;
        continue pkt
      | Of_action.Output (Of_types.Port_no.Local | Of_types.Port_no.Any) -> continue pkt
      | Of_action.Group gid -> (
        match T.group t gid with
        | None ->
          T.drop t Pipeline.Action;
          continue pkt
        | Some g ->
          let flow_hash = Flow_key.hash (Packet.flow_key pkt) in
          ignore
            (apply_actions t ~in_port ~tunnel_id ~via_miss pkt
               (Group_table.select g ~flow_hash).Of_msg.Group_mod.actions);
          continue pkt)
      | Of_action.Push_mpls label -> continue (Packet.push_encap (Headers.Encap.mpls label) pkt)
      | Of_action.Pop_mpls ->
        continue (match pop_encap pkt with Some (Headers.Encap.Mpls _, p) -> p | _ -> pkt))

  let rec run_table t ~table_id ~in_port ~tunnel_id pkt =
    match hit (T.lookup t ~table_id ~in_port ~tunnel_id pkt) with
    | None -> T.drop t Pipeline.No_rule
    | Some rule ->
      let via_miss = rule.Flow_table.priority = 0 && Of_match.is_wildcard rule.Flow_table.match_ in
      let actions = Of_action.actions_of_instructions rule.Flow_table.instructions in
      let pkt = apply_actions t ~in_port ~tunnel_id ~via_miss pkt actions in
      (match Of_action.goto_of_instructions rule.Flow_table.instructions with
      | Some next when next > table_id -> run_table t ~table_id:next ~in_port ~tunnel_id pkt
      | Some _ | None -> ())
end

(* A target that records every call, with the packets it was handed.
   Table [i] holds at most one wildcard rule; group 1 is present, every
   other group is missing. *)
type pipe_event =
  | Lookup of int * int option * Packet.t  (* table id, tunnel id, the packet looked up *)
  | Emit of int * Packet.t
  | Flood of int * Packet.t
  | To_controller of int * int option * Of_types.Packet_in_reason.t * Packet.t
  | Drop of Pipeline.drop_reason

module Recorder = struct
  type t = {
    tables : Flow_table.t array;
    group1 : Group_table.group;
    mutable log : pipe_event list;
  }

  let record t ev = t.log <- ev :: t.log

  let lookup t ~table_id ~in_port ~tunnel_id pkt =
    record t (Lookup (table_id, tunnel_id, pkt));
    if table_id < 0 || table_id >= Array.length t.tables then Flow_table.no_rule
    else Flow_table.lookup t.tables.(table_id) ~now:0.0 ~in_port ~tunnel_id pkt

  let emit t p pkt = record t (Emit (p, pkt))
  let flood t ~in_port pkt = record t (Flood (in_port, pkt))

  let to_controller t ~in_port ~tunnel_id reason pkt =
    record t (To_controller (in_port, tunnel_id, reason, pkt))

  let group t gid = if gid = 1 then Some t.group1 else None
  let drop t reason = record t (Drop reason)
end

module P_new = Pipeline.Make (Recorder)
module P_ref = Pipeline_ref (Recorder)

let pipe_tables = 3

(* One rule per table: [None] leaves the table empty (a miss). *)
type pipe_case = {
  rules : (int * Of_action.instructions) option list;  (* priority, instructions *)
  buckets : Of_action.t list list;  (* group 1's buckets; no group actions inside *)
  start : int;
  actions : Of_action.t list;  (* a bare [apply_actions] call *)
  via_miss : bool;
  tunnel_id : int option;
  pkt : Packet.t;
}

let recorder case =
  let tables = Array.init pipe_tables (fun i -> Flow_table.create ~table_id:i ()) in
  List.iteri
    (fun i -> function
      | None -> ()
      | Some (priority, instructions) ->
        insert_ok tables.(i) ~now:0.0 ~priority ~match_:Of_match.wildcard ~instructions)
    case.rules;
  let buckets = List.map Of_msg.Group_mod.bucket case.buckets in
  { Recorder.tables; group1 = { Group_table.group_id = 1; buckets }; log = [] }

let pipe_action_gen ~groups =
  let open QCheck.Gen in
  let port =
    Of_types.Port_no.(
      oneofl [ Physical 1; Physical 2; Physical 3; In_port; Controller; All; Local ])
  in
  frequency
    ([ (4, map (fun p -> Of_action.Output p) port);
       (2, map (fun l -> Of_action.Push_mpls l) (int_bound 3));
       (2, return Of_action.Pop_mpls) ]
    @ if groups then [ (2, map (fun g -> Of_action.Group g) (int_range 1 2)) ] else [])

let pipe_instructions_gen =
  let open QCheck.Gen in
  let actions = list_size (int_bound 4) (pipe_action_gen ~groups:true) in
  let* applies = list_size (int_bound 3) (map (fun a -> Of_action.Apply_actions a) actions) in
  (* forward, backward, to itself and past the last table *)
  let* gotos =
    list_size (int_bound 2) (map (fun n -> Of_action.Goto_table n) (int_bound pipe_tables))
  in
  (* shuffle them together, so a goto may come first, last or between lists *)
  let* keys = list_repeat (List.length applies + List.length gotos) (int_bound 100) in
  let tagged = List.combine keys (applies @ gotos) in
  return (List.map snd (List.stable_sort (fun (a, _) (b, _) -> compare a b) tagged))

let pipe_case_gen =
  let open QCheck.Gen in
  let rule = opt ~ratio:0.85 (pair (oneofl [ 0; 5 ]) pipe_instructions_gen) in
  let* rules = list_repeat pipe_tables rule in
  let* buckets =
    list_size (int_range 1 3) (list_size (int_bound 3) (pipe_action_gen ~groups:false))
  in
  let* start = int_bound 1 in
  let* actions = list_size (int_bound 4) (pipe_action_gen ~groups:true) in
  let* via_miss = bool in
  let* tunnel_id = opt (return 9) in
  let* encaps =
    list_size (int_bound 2)
      (oneof [ map Headers.Encap.mpls (int_bound 3); map Headers.Encap.vlan (int_bound 3) ])
  in
  let* src_port = int_bound 65535 in
  let pkt = List.fold_left (fun p e -> Packet.push_encap e p) (mk_packet ~src_port ()) encaps in
  return { rules; buckets; start; actions; via_miss; tunnel_id; pkt }

let pp_actions acts =
  let pp = function
    | Of_action.Output (Of_types.Port_no.Physical p) -> Printf.sprintf "out:%d" p
    | Of_action.Output p -> Printf.sprintf "out:%x" (Of_types.Port_no.to_int p)
    | Of_action.Group g -> Printf.sprintf "group:%d" g
    | Of_action.Push_mpls l -> Printf.sprintf "push:%d" l
    | Of_action.Pop_mpls -> "pop"
  in
  "[" ^ String.concat "; " (List.map pp acts) ^ "]"

let pp_pipe_case c =
  let instr = function
    | Of_action.Apply_actions a -> "apply " ^ pp_actions a
    | Of_action.Goto_table n -> Printf.sprintf "goto %d" n
  in
  let rule i = function
    | None -> Printf.sprintf "table %d: empty" i
    | Some (prio, is) ->
      Printf.sprintf "table %d prio %d: %s" i prio (String.concat ", " (List.map instr is))
  in
  String.concat "\n"
    (List.mapi rule c.rules
    @ [ "group 1: " ^ String.concat " | " (List.map pp_actions c.buckets);
        Printf.sprintf "start %d; actions %s via_miss %b; tunnel %s; packet %s" c.start
          (pp_actions c.actions) c.via_miss
          (match c.tunnel_id with None -> "-" | Some t -> string_of_int t)
          (Format.asprintf "%a" Packet.pp c.pkt) ])

(* The same calls, in the same order, with equal packets; and the same
   packet returned from a bare action list. *)
let prop_pipeline_matches_reference =
  QCheck.Test.make ~name:"pipeline agrees with its closure-per-action reference" ~count:500
    (QCheck.make ~print:pp_pipe_case pipe_case_gen)
    (fun case ->
      let tunnel_id = case.tunnel_id and via_miss = case.via_miss in
      let t_new = recorder case and t_ref = recorder case in
      P_new.run_table t_new ~table_id:case.start ~in_port:1 ~tunnel_id case.pkt;
      P_ref.run_table t_ref ~table_id:case.start ~in_port:1 ~tunnel_id case.pkt;
      let walked = t_new.Recorder.log = t_ref.Recorder.log in
      let r_new = P_new.apply_actions t_new ~in_port:1 ~tunnel_id ~via_miss case.pkt case.actions in
      let r_ref = P_ref.apply_actions t_ref ~in_port:1 ~tunnel_id ~via_miss case.pkt case.actions in
      walked && r_new = r_ref && t_new.Recorder.log = t_ref.Recorder.log)

(* An output to a port, and a present select group, allocate nothing:
   the interpreter reads the action list in place and hashes the
   packet's headers without building a flow key, and the group table
   hands back the option it stored. *)
module Counting = struct
  type t = { mutable emitted : int; groups : Group_table.t }

  let lookup _ ~table_id:_ ~in_port:_ ~tunnel_id:_ _ = Flow_table.no_rule
  let emit t _ _ = t.emitted <- t.emitted + 1
  let flood _ ~in_port:_ _ = ()
  let to_controller _ ~in_port:_ ~tunnel_id:_ _ _ = ()
  let group t gid = Group_table.find t.groups gid
  let drop _ _ = ()
end

module P_count = Pipeline.Make (Counting)

let test_pipeline_allocates_nothing () =
  let buckets =
    List.init 3 (fun i ->
        Of_msg.Group_mod.bucket [ Of_action.Output (Of_types.Port_no.Physical (2 + i)) ])
  in
  let t = { Counting.emitted = 0; groups = Group_table.create () } in
  (match Group_table.apply t.Counting.groups (Of_msg.Group_mod.add_select ~group_id:1 ~buckets) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "group add rejected");
  let pkt = mk_packet () in
  let output = [ Of_action.Output (Of_types.Port_no.Physical 2) ]
  and group = [ Of_action.Group 1 ] in
  let run actions () =
    for _ = 1 to 1000 do
      ignore (P_count.apply_actions t ~in_port:1 ~tunnel_id:None ~via_miss:false pkt actions)
    done
  in
  Alcotest.(check (float 0.0)) "output: minor words" 0.0 (Minor.words (run output));
  Alcotest.(check (float 0.0)) "select group: minor words" 0.0 (Minor.words (run group));
  Alcotest.(check int) "emitted" 2000 t.Counting.emitted

let () =
  Alcotest.run "scotch_switch"
    [ ( "flow_table",
        [ Alcotest.test_case "priority order" `Quick test_ft_priority_order;
          Alcotest.test_case "exact+wildcard buckets" `Quick test_ft_exact_and_wildcard_buckets;
          Alcotest.test_case "replace preserves counters" `Quick test_ft_replace_preserves_counters;
          Alcotest.test_case "hard timeout" `Quick test_ft_hard_timeout;
          Alcotest.test_case "idle timeout" `Quick test_ft_idle_timeout;
          Alcotest.test_case "capacity limit" `Quick test_ft_capacity;
          Alcotest.test_case "capacity after expiry" `Quick test_ft_capacity_after_expiry;
          Alcotest.test_case "delete" `Quick test_ft_delete;
          Alcotest.test_case "stats" `Quick test_ft_stats;
          Alcotest.test_case "peek leaves counters" `Quick test_ft_peek_no_counters;
          Alcotest.test_case "masked-out bits are irrelevant" `Quick
            test_ft_masked_bits_irrelevant;
          QCheck_alcotest.to_alcotest prop_ft_reference;
          QCheck_alcotest.to_alcotest prop_ft_live_rules_order;
          QCheck_alcotest.to_alcotest prop_install_order;
          Alcotest.test_case "classifier hash spread" `Quick test_classifier_hash_spread;
          Alcotest.test_case "classifier lookup allocation" `Quick
            test_classifier_lookup_allocation ] );
      ( "group_table",
        [ Alcotest.test_case "add/modify/delete" `Quick test_gt_add_modify_delete;
          Alcotest.test_case "modify replaces the buckets" `Quick
            test_gt_modify_replaces_buckets;
          Alcotest.test_case "rejects bad buckets" `Quick test_gt_rejects_bad_buckets;
          Alcotest.test_case "select deterministic" `Quick test_gt_select_deterministic;
          QCheck_alcotest.to_alcotest prop_gt_churn_weights;
          QCheck_alcotest.to_alcotest prop_gt_tenant_shares ] );
      ( "ofa",
        [ Alcotest.test_case "pin queue cap" `Quick test_ofa_pin_rate_cap;
          Alcotest.test_case "cmsg priority" `Quick test_ofa_cmsg_priority;
          Alcotest.test_case "dead agent" `Quick test_ofa_dead;
          Alcotest.test_case "housekeeping stall" `Quick test_ofa_housekeeping_stall;
          Alcotest.test_case "pin drop-oldest" `Quick test_ofa_pin_drop_oldest;
          Alcotest.test_case "pin deadline" `Quick test_ofa_pin_deadline;
          Alcotest.test_case "profile setup rate" `Quick test_profile_setup_rate;
          QCheck_alcotest.to_alcotest prop_pin_tenant_isolation ] );
      ( "switch",
        [ Alcotest.test_case "forwarding" `Quick test_switch_forwarding;
          Alcotest.test_case "miss drops" `Quick test_switch_miss_drops;
          Alcotest.test_case "goto threads packet (regression)" `Quick
            test_switch_goto_threads_packet;
          Alcotest.test_case "group select path" `Quick test_switch_group_select_path;
          Alcotest.test_case "tunnel encap/decap" `Quick test_switch_tunnel_encap_decap;
          Alcotest.test_case "receive allocates nothing" `Quick
            test_switch_receive_allocates_nothing;
          Alcotest.test_case "tcam write stall" `Quick test_switch_tcam_write_stall;
          Alcotest.test_case "failure injection" `Quick test_switch_failure_injection;
          Alcotest.test_case "normal ports" `Quick test_switch_normal_ports;
          Alcotest.test_case "packet out via ofa" `Quick test_switch_packet_out_via_ofa;
          Alcotest.test_case "every action kind" `Quick test_switch_every_action;
          QCheck_alcotest.to_alcotest prop_pipeline_matches_reference;
          Alcotest.test_case "actions allocate nothing" `Quick test_pipeline_allocates_nothing;
          QCheck_alcotest.to_alcotest prop_flow_stats_reply;
          Alcotest.test_case "flow-stats reply allocation" `Quick test_flow_stats_allocation ] ) ]
