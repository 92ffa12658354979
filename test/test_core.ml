(* Tests for Scotch_core: configuration, the Flow Info Database, the
   Fig. 7 scheduler, overlay bookkeeping, policy rule generation and
   controller-side Scotch invariants. *)

open Scotch_core
open Scotch_packet
module Of_match = Scotch_openflow.Of_match

let key i =
  Flow_key.make
    ~ip_src:(Ipv4_addr.of_int (0x0A000000 + i))
    ~ip_dst:(Ipv4_addr.make 10 0 0 200) ~proto:6 ~l4_src:1024 ~l4_dst:80 ()

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_cookies_distinct () =
  Alcotest.(check bool) "three distinct cookies" true
    (Config.cookie_green <> Config.cookie_red
    && Config.cookie_red <> Config.cookie_vflow
    && Config.cookie_green <> Config.cookie_vflow)

let test_config_r_below_lossfree () =
  (* R must not exceed the Pica8's loss-free insertion rate (200/s) *)
  Alcotest.(check bool) "R <= 200" true (Config.rule_rate <= 200.0)

(* ------------------------------------------------------------------ *)
(* Flow_info_db *)

let test_db_admit_dedup () =
  let db = Flow_info_db.create () in
  let e1 =
    Flow_info_db.admit db ~tenant:Tenant.default_id ~key:(key 1) ~first_hop:1 ~ingress_port:3
      ~now:0.0
  in
  let e2 =
    Flow_info_db.admit db ~tenant:Tenant.default_id ~key:(key 1) ~first_hop:2 ~ingress_port:9
      ~now:1.0
  in
  Alcotest.(check bool) "same entry" true (e1 == e2);
  Alcotest.(check int) "original first hop" 1 e2.Flow_info_db.first_hop;
  Alcotest.(check int) "size" 1 (Flow_info_db.size db)

let test_db_kind_accounting () =
  let db = Flow_info_db.create () in
  let e1 =
    Flow_info_db.admit db ~tenant:Tenant.default_id ~key:(key 1) ~first_hop:1 ~ingress_port:1
      ~now:0.0
  in
  let e2 =
    Flow_info_db.admit db ~tenant:Tenant.default_id ~key:(key 2) ~first_hop:1 ~ingress_port:1
      ~now:0.0
  in
  Flow_info_db.set_kind db e1 (Flow_info_db.Overlay { entry_vswitch = 100 });
  Flow_info_db.set_kind db e2 Flow_info_db.Physical;
  Alcotest.(check int) "overlay count" 1 (Flow_info_db.overlay_count db);
  Alcotest.(check int) "physical count" 1 (Flow_info_db.physical_count db);
  Flow_info_db.set_kind db e1 Flow_info_db.Physical;
  Alcotest.(check int) "overlay decremented" 0 (Flow_info_db.overlay_count db);
  Alcotest.(check int) "physical incremented" 2 (Flow_info_db.physical_count db);
  Flow_info_db.remove db (key 1);
  Alcotest.(check int) "removal decrements" 1 (Flow_info_db.physical_count db)

let test_db_overlay_flows_filter () =
  let db = Flow_info_db.create () in
  (* flow 1: overlay, long-lived, recent *)
  let e1 =
    Flow_info_db.admit db ~tenant:Tenant.default_id ~key:(key 1) ~first_hop:1 ~ingress_port:1
      ~now:0.0
  in
  Flow_info_db.set_kind db e1 (Flow_info_db.Overlay { entry_vswitch = 100 });
  e1.Flow_info_db.last_packet_count <- 50;
  e1.Flow_info_db.last_active <- 9.5;
  (* flow 2: overlay single-packet probe (a spoofed SYN) *)
  let e2 =
    Flow_info_db.admit db ~tenant:Tenant.default_id ~key:(key 2) ~first_hop:1 ~ingress_port:1
      ~now:9.0
  in
  Flow_info_db.set_kind db e2 (Flow_info_db.Overlay { entry_vswitch = 100 });
  e2.Flow_info_db.last_packet_count <- 1;
  e2.Flow_info_db.last_active <- 9.0;
  (* flow 3: overlay but stale *)
  let e3 =
    Flow_info_db.admit db ~tenant:Tenant.default_id ~key:(key 3) ~first_hop:1 ~ingress_port:1
      ~now:0.0
  in
  Flow_info_db.set_kind db e3 (Flow_info_db.Overlay { entry_vswitch = 100 });
  e3.Flow_info_db.last_packet_count <- 50;
  e3.Flow_info_db.last_active <- 1.0;
  (* flow 4: overlay at a different switch *)
  let e4 =
    Flow_info_db.admit db ~tenant:Tenant.default_id ~key:(key 4) ~first_hop:2 ~ingress_port:1
      ~now:9.5
  in
  Flow_info_db.set_kind db e4 (Flow_info_db.Overlay { entry_vswitch = 100 });
  e4.Flow_info_db.last_packet_count <- 50;
  e4.Flow_info_db.last_active <- 9.5;
  let pins = Flow_info_db.overlay_flows_of_switch db ~horizon:2.0 ~now:10.0 1 in
  Alcotest.(check int) "only the live multi-packet flow pinned" 1 (List.length pins);
  Alcotest.(check bool) "it is flow 1" true
    (Flow_key.equal (List.hd pins).Flow_info_db.key (key 1))

(* Keys for the model test: 1000 that differ only in ip_dst, a few
   that differ elsewhere, one without ports, and the all-zero key —
   the same as the database's removed-entry sentinel. *)
let db_keys =
  Array.concat
    [ Array.init 1000 (fun i ->
          Flow_key.make ~ip_src:(Ipv4_addr.make 10 0 0 1)
            ~ip_dst:(Ipv4_addr.of_int (0x0A010000 + i)) ~proto:6 ~l4_src:5000 ~l4_dst:80 ());
      Array.init 8 key;
      [| Flow_key.make ~ip_src:(Ipv4_addr.make 10 0 0 1) ~ip_dst:(Ipv4_addr.make 10 1 0 0)
           ~proto:17 ~l4_src:5000 ~l4_dst:80 ();
         Flow_key.make ~ip_src:(Ipv4_addr.make 10 0 0 1) ~ip_dst:(Ipv4_addr.make 10 1 0 0)
           ~proto:1 ();
         Flow_key.make ~ip_src:0 ~ip_dst:0 ~proto:0 () |] ]

type db_op =
  | Admit of int * int (* key, first hop *)
  | Set_kind of int * Flow_info_db.path_kind
  | Remove of int

(* Rule matches around [k] that name no flow: [k]'s destination at
   /24, [k] without its protocol, the wildcard and a destination-only
   rule. *)
let db_misses (k : Flow_key.t) =
  let exact = Of_match.exact_flow k in
  let mask24 = Ipv4_addr.prefix_mask 24 in
  [ { exact with
      Of_match.ip_dst = Some { Of_match.value = k.Flow_key.ip_dst land mask24; mask = mask24 } };
    { exact with Of_match.ip_proto = None };
    Of_match.wildcard;
    Of_match.with_ip_dst k.Flow_key.ip_dst Of_match.wildcard ]

(* Those, and the exact matches that name [k]: its own, and one with an
   in_port pin too, which {!Of_match.flow_key} ignores. *)
let db_matches (k : Flow_key.t) =
  let exact = Of_match.exact_flow k in
  exact :: Of_match.with_in_port 3 exact :: db_misses k

(* [Flow_info_db.find_match_exn] as an option, for comparing. *)
let find_match db m =
  match Flow_info_db.find_match_exn db m with e -> Some e | exception Not_found -> None

(* The database against an association list in admission order: after
   every operation the sizes, per-kind counts, [iter]'s order and every
   lookup agree, [find_match] agrees with [flow_key] then [find], and
   nothing answers with the removed-entry sentinel.  Runs of hundreds
   of operations over a few dozen keys cross many repacks. *)
let prop_db_model =
  let n = Array.length db_keys in
  let key_gen = QCheck.Gen.(frequency [ (4, int_range 990 (n - 1)); (1, int_bound (n - 1)) ]) in
  let kind_gen =
    QCheck.Gen.oneofl
      [ Flow_info_db.Pending; Flow_info_db.Physical; Flow_info_db.Dropped;
        Flow_info_db.Overlay { entry_vswitch = 100 }; Flow_info_db.Overlay { entry_vswitch = 101 } ]
  in
  let op_gen =
    QCheck.Gen.(
      frequency
        [ (4, map2 (fun k hop -> Admit (k, hop)) key_gen (int_bound 3));
          (2, map2 (fun k kind -> Set_kind (k, kind)) key_gen kind_gen);
          (3, map (fun k -> Remove k) key_gen) ])
  in
  QCheck.Test.make ~name:"flow info db agrees with an association list" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 400) op_gen))
    (fun ops ->
      let db = Flow_info_db.create () in
      (* (key index, entry) in admission order *)
      let model = ref [] in
      let count p = List.length (List.filter (fun (_, e) -> p e.Flow_info_db.kind) !model) in
      let agrees k =
        let key = db_keys.(k) in
        let want = List.assoc_opt k !model in
        (match (Flow_info_db.find db key, want) with
        | None, None -> true
        | Some e, Some w -> e == w
        | _ -> false)
        && List.for_all
             (fun m ->
               let got = find_match db m in
               Option.equal ( == ) got (Option.bind (Of_match.flow_key m) (Flow_info_db.find db)))
             (db_matches key)
        && List.for_all (fun m -> find_match db m = None) (db_misses key)
      in
      let step op =
        (match op with
        | Admit (k, first_hop) ->
          let e =
            Flow_info_db.admit db ~tenant:Tenant.default_id ~key:db_keys.(k) ~first_hop
              ~ingress_port:1 ~now:0.0
          in
          if not (List.mem_assoc k !model) then model := !model @ [ (k, e) ]
        | Set_kind (k, kind) ->
          Option.iter (fun e -> Flow_info_db.set_kind db e kind) (Flow_info_db.find db db_keys.(k))
        | Remove k ->
          Flow_info_db.remove db db_keys.(k);
          model := List.remove_assoc k !model);
        let k = match op with Admit (k, _) | Set_kind (k, _) | Remove k -> k in
        let order = ref [] in
        Flow_info_db.iter db (fun e -> order := e :: !order);
        agrees k
        && Flow_info_db.size db = List.length !model
        && Flow_info_db.overlay_count db
           = count (function Flow_info_db.Overlay _ -> true | _ -> false)
        && Flow_info_db.physical_count db = count (( = ) Flow_info_db.Physical)
        && List.equal ( == ) (List.rev !order) (List.map snd !model)
      in
      List.for_all step ops && List.for_all agrees (List.init n Fun.id))

(* 1000 keys that differ only in ip_dst: admitted, half removed and
   re-admitted, every one is found by its key and by its exact match,
   and [iter] lists them in admission order. *)
let test_db_ip_dst_keys () =
  let db = Flow_info_db.create () in
  let admit i =
    ignore
      (Flow_info_db.admit db ~tenant:Tenant.default_id ~key:db_keys.(i) ~first_hop:1
         ~ingress_port:1 ~now:0.0)
  in
  for i = 0 to 999 do
    admit i
  done;
  for i = 0 to 999 do
    if i mod 2 = 0 then Flow_info_db.remove db db_keys.(i)
  done;
  Alcotest.(check int) "half left" 500 (Flow_info_db.size db);
  for i = 0 to 999 do
    if i mod 2 = 0 then admit i
  done;
  let order = ref [] in
  Flow_info_db.iter db (fun e -> order := e.Flow_info_db.key :: !order);
  let want =
    List.init 500 (fun i -> db_keys.((2 * i) + 1)) @ List.init 500 (fun i -> db_keys.(2 * i))
  in
  Alcotest.(check bool) "admission order" true (List.equal Flow_key.equal (List.rev !order) want);
  for i = 0 to 999 do
    let key = db_keys.(i) in
    match (Flow_info_db.find db key, find_match db (Of_match.exact_flow key)) with
    | Some a, Some b when a == b && Flow_key.equal a.Flow_info_db.key key -> ()
    | _ -> Alcotest.failf "key %s not found" (Flow_key.to_string key)
  done

(* A [find_match_exn] hit allocates nothing, and neither does a miss,
   which raises the constant [Not_found]; the slack per lookup, 0.01
   words, is the measurement's own boxed float. *)
let test_db_find_match_allocation () =
  let db = Flow_info_db.create () in
  for i = 0 to 999 do
    ignore
      (Flow_info_db.admit db ~tenant:Tenant.default_id ~key:db_keys.(i) ~first_hop:1
         ~ingress_port:1 ~now:0.0)
  done;
  let per_lookup m =
    let before = Gc.minor_words () in
    for _ = 1 to 10_000 do
      match Flow_info_db.find_match_exn db m with
      | e -> ignore (Sys.opaque_identity e)
      | exception Not_found -> ()
    done;
    (Gc.minor_words () -. before) /. 10_000.0
  in
  let hit = Of_match.exact_flow db_keys.(500) in
  let misses = Of_match.exact_flow (key 1) :: db_misses db_keys.(500) in
  Alcotest.(check bool) "hits" true (find_match db hit <> None);
  let words = per_lookup hit in
  if words > 0.01 then Alcotest.failf "a hit allocates %.3f words" words;
  List.iter
    (fun m ->
      let words = per_lookup m in
      if words > 0.01 then Alcotest.failf "a miss allocates %.3f words" words)
    misses

(* ------------------------------------------------------------------ *)
(* Sched *)

let mk_sched ?(shed_policy = Scotch_util.Admission.Drop_new) ?(deadline = 0.0)
    ?(tenants = [ Tenant.default ]) ?(rate = 100.0) ?(overlay_threshold = 3)
    ?(drop_threshold = 6) ?(differentiate = true) e =
  Sched.create ~shed_policy ~deadline ~tenants e ~rate ~overlay_threshold ~drop_threshold
    ~differentiate

(* An ingress submission as [Scotch.serve_new_flow] makes it: the
   verdict first, then the item only if it is queued. *)
let submit_ingress s ~port ?(tenant = Tenant.default_id) ?(shed = ignore) run =
  match Sched.ingress_verdict s ~port ~tenant with
  | `Queued ->
    Sched.enqueue_ingress s ~port ~tenant ~shed run;
    `Queued
  | (`Overlay | `Drop) as v -> v

let test_sched_thresholds () =
  let e = Scotch_sim.Engine.create () in
  let s = mk_sched e in
  let outcomes = List.init 8 (fun _ -> submit_ingress s ~port:1 (fun () -> ())) in
  Alcotest.(check int) "queued up to threshold" 3
    (List.length (List.filter (( = ) `Queued) outcomes));
  (* the queue sticks at the overlay threshold: everything else diverts *)
  Alcotest.(check int) "diverted to overlay" 5
    (List.length (List.filter (( = ) `Overlay) outcomes));
  Alcotest.(check int) "diverted counter" 5 (Sched.counters s).Sched.diverted_overlay;
  Alcotest.(check int) "backlog" 3 (Sched.ingress_backlog s)

let test_sched_priorities () =
  let e = Scotch_sim.Engine.create () in
  let s = mk_sched ~rate:10.0 e in
  let log = ref [] in
  ignore (submit_ingress s ~port:1 (fun () -> log := "ingress" :: !log));
  Sched.submit_large s ~tenant:Tenant.default_id (fun () -> log := "large" :: !log);
  Sched.submit_admitted s ~tenant:Tenant.default_id (fun () -> log := "admitted" :: !log);
  Sched.start s;
  Scotch_sim.Engine.run ~until:1.0 e;
  Alcotest.(check (list string)) "admitted > large > ingress"
    [ "admitted"; "large"; "ingress" ]
    (List.rev !log)

let test_sched_round_robin () =
  let e = Scotch_sim.Engine.create () in
  let s = mk_sched ~rate:10.0 ~overlay_threshold:10 e in
  let log = ref [] in
  (* three items on port 1, three on port 2 — RR must alternate *)
  for i = 1 to 3 do
    ignore (submit_ingress s ~port:1 (fun () -> log := (1, i) :: !log));
    ignore (submit_ingress s ~port:2 (fun () -> log := (2, i) :: !log))
  done;
  Sched.start s;
  Scotch_sim.Engine.run ~until:1.0 e;
  let ports = List.rev_map fst !log in
  Alcotest.(check (list int)) "alternating service" [ 1; 2; 1; 2; 1; 2 ] ports

let test_sched_no_differentiation_single_queue () =
  let e = Scotch_sim.Engine.create () in
  let s = mk_sched ~differentiate:false ~overlay_threshold:4 e in
  ignore (submit_ingress s ~port:1 (fun () -> ()));
  ignore (submit_ingress s ~port:2 (fun () -> ()));
  ignore (submit_ingress s ~port:3 (fun () -> ()));
  Alcotest.(check int) "shared queue" 3 (Sched.ingress_queue_length s ~port:42)

let test_sched_rate_pacing () =
  let e = Scotch_sim.Engine.create () in
  let s = mk_sched ~rate:50.0 ~overlay_threshold:1000 ~drop_threshold:2000 e in
  let served = ref 0 in
  for _ = 1 to 1000 do
    ignore (submit_ingress s ~port:1 (fun () -> incr served))
  done;
  Sched.start s;
  (* idempotent: a second start adds no second serve loop *)
  Sched.start s;
  Scotch_sim.Engine.run ~until:2.0 e;
  Alcotest.(check bool) "~100 served in 2 s at R=50" true (abs (!served - 100) <= 1)

let test_sched_drop_threshold () =
  let e = Scotch_sim.Engine.create () in
  let s = mk_sched ~overlay_threshold:10 ~drop_threshold:5 e in
  let outcomes = List.init 8 (fun _ -> submit_ingress s ~port:1 (fun () -> ())) in
  Alcotest.(check int) "dropped past threshold" 3
    (List.length (List.filter (( = ) `Drop) outcomes));
  Alcotest.(check int) "drop counter" 3 (Sched.counters s).Sched.dropped

let queued = function `Queued -> true | `Overlay | `Drop -> false

(* Drop_oldest: a newcomer to a full lane evicts that lane's head, and
   the victim's [shed] fires. *)
let test_sched_drop_oldest () =
  let e = Scotch_sim.Engine.create () in
  let s =
    mk_sched ~shed_policy:Scotch_util.Admission.Drop_oldest e ~rate:10.0 ~overlay_threshold:10
      ~drop_threshold:2
  in
  let shed = ref [] and ran = ref [] in
  let submit port i =
    submit_ingress s ~port ~shed:(fun () -> shed := i :: !shed) (fun () -> ran := i :: !ran)
  in
  ignore (submit 1 1);
  ignore (submit 1 2);
  ignore (submit 2 3);
  Alcotest.(check bool) "newcomer sheltered" true (queued (submit 1 4));
  Alcotest.(check (list int)) "port 1's head shed" [ 1 ] !shed;
  Alcotest.(check int) "evicted" 1 (Sched.counters s).Sched.evicted;
  Alcotest.(check int) "shed_total" 1 (Sched.shed_total s);
  Sched.start s;
  Scotch_sim.Engine.run ~until:1.0 e;
  Alcotest.(check (list int)) "survivors served round-robin" [ 2; 3; 4 ] (List.rev !ran)

(* Priority_preserving: a newcomer to a full lane evicts the head of
   the longest lane, the lowest (port, tenant) key winning a tie. *)
let test_sched_priority_preserving () =
  let e = Scotch_sim.Engine.create () in
  let s =
    mk_sched ~shed_policy:Scotch_util.Admission.Priority_preserving e ~rate:10.0
      ~overlay_threshold:10 ~drop_threshold:2
  in
  let shed = ref [] in
  let submit port i =
    submit_ingress s ~port ~shed:(fun () -> shed := i :: !shed) (fun () -> ())
  in
  ignore (submit 2 1);
  ignore (submit 2 2);
  ignore (submit 1 3);
  ignore (submit 1 4);
  (* ports 1 and 2 both hold 2: the tie goes to port 1 *)
  Alcotest.(check bool) "tie: queued" true (queued (submit 2 5));
  Alcotest.(check (list int)) "tie: lowest key's head shed" [ 3 ] !shed;
  ignore (submit 1 6);
  (* port 2 now holds 3, port 1 holds 2: port 2 is the longest *)
  Alcotest.(check bool) "longest: queued" true (queued (submit 1 7));
  Alcotest.(check (list int)) "longest lane's head shed" [ 3; 1 ] (List.rev !shed);
  Alcotest.(check int) "port 1 grew past the threshold" 3 (Sched.ingress_queue_length s ~port:1)

(* A queued item past its deadline is shed at serve time, and the same
   tick goes on to serve the next fresh item. *)
let test_sched_deadline_expiry () =
  let e = Scotch_sim.Engine.create () in
  let s =
    mk_sched ~deadline:0.05 e ~rate:10.0 ~overlay_threshold:10 ~drop_threshold:20
  in
  let shed = ref [] and ran = ref [] in
  let submit i =
    ignore
      (submit_ingress s ~port:1
         ~shed:(fun () -> shed := i :: !shed)
         (fun () -> ran := i :: !ran))
  in
  submit 1;
  Scotch_sim.Engine.schedule_at e ~at:0.08 (fun () -> submit 2);
  Sched.start s;
  (* one serve tick, at t = 0.1: item 1 is 0.1 s old, item 2 0.02 s *)
  Scotch_sim.Engine.run ~until:0.15 e;
  Alcotest.(check (list int)) "stale item shed" [ 1 ] !shed;
  Alcotest.(check (list int)) "fresh item served in the same tick" [ 2 ] !ran;
  Alcotest.(check int) "expired" 1 (Sched.counters s).Sched.expired;
  Alcotest.(check int) "served" 1 (Sched.counters s).Sched.served_ingress

(* A tenant past its own budget is refused: the refusal is charged to
   the tenant but is not pool overload, so [shed_total] ignores it. *)
let test_sched_budget_refusal () =
  let e = Scotch_sim.Engine.create () in
  let s =
    mk_sched ~tenants:[ Tenant.make ~sched_budget:1 ~id:7 "t" ] e ~rate:10.0
      ~overlay_threshold:10 ~drop_threshold:20
  in
  Alcotest.(check bool) "within budget" true
    (queued (submit_ingress s ~port:1 ~tenant:7 ignore));
  Alcotest.(check bool) "over budget" true
    (submit_ingress s ~port:2 ~tenant:7 ignore = `Drop);
  Alcotest.(check int) "budget_dropped" 1 (Sched.counters s).Sched.budget_dropped;
  Alcotest.(check int) "charged to the tenant" 1
    (Scotch_util.Admission.shed (Sched.admission s) ~tenant:7);
  Alcotest.(check int) "not in shed_total" 0 (Sched.shed_total s)

(* qcheck: round-robin fairness — with k equally-backlogged ports, each
   port receives within one slot of served/k *)
let prop_sched_rr_fairness =
  QCheck.Test.make ~name:"round-robin fairness across ports" ~count:50
    QCheck.(pair (int_range 2 6) (int_range 10 60))
    (fun (nports, serves) ->
      let e = Scotch_sim.Engine.create () in
      let s = mk_sched e ~rate:100.0 ~overlay_threshold:1000 ~drop_threshold:2000 in
      let served = Array.make nports 0 in
      for port = 0 to nports - 1 do
        for _ = 1 to serves do
          ignore (submit_ingress s ~port (fun () -> served.(port) <- served.(port) + 1))
        done
      done;
      Sched.start s;
      Scotch_sim.Engine.run ~until:(float_of_int serves /. 100.0 *. 2.0) e;
      let total = Array.fold_left ( + ) 0 served in
      let fair = total / nports in
      Array.for_all (fun c -> abs (c - fair) <= 1) served)

(* ------------------------------------------------------------------ *)
(* Overlay *)

let fast_profile = Scotch_switch.Profile.scotch_vswitch

let overlay_rig ~n =
  let e = Scotch_sim.Engine.create () in
  let topo = Scotch_topo.Topology.create e in
  let ov = Overlay.create topo in
  let vsws =
    Array.init n (fun i ->
        let sw =
          Scotch_switch.Switch.create e ~dpid:(100 + i) ~name:(Printf.sprintf "v%d" i)
            ~profile:fast_profile ()
        in
        Scotch_topo.Topology.add_switch topo sw;
        Overlay.add_vswitch ov sw ~backup:false;
        sw)
  in
  (e, topo, ov, vsws)

let test_overlay_full_mesh () =
  let _, _, ov, _ = overlay_rig ~n:4 in
  (* every ordered pair has a mesh tunnel *)
  for i = 0 to 3 do
    for j = 0 to 3 do
      if i <> j then
        Alcotest.(check bool)
          (Printf.sprintf "mesh %d->%d" i j)
          true
          (match Overlay.mesh_tunnel ov ~src:(100 + i) ~dst:(100 + j) with
          | _ -> true
          | exception Not_found -> false)
    done
  done

let test_overlay_uplinks_and_origin () =
  let e, topo, ov, _ = overlay_rig ~n:2 in
  let phys = Scotch_switch.Switch.create e ~dpid:1 ~name:"p" ~profile:Scotch_switch.Profile.pica8 () in
  Scotch_topo.Topology.add_switch topo phys;
  Overlay.connect_switch ov phys ~to_vswitches:[ 100; 101 ];
  let ups = Overlay.uplinks_of ov 1 in
  Alcotest.(check int) "two uplinks" 2 (List.length ups);
  List.iter
    (fun (_, tid) ->
      Alcotest.(check int) "origin map" 1 (Overlay.origin_of_tunnel ov tid))
    ups;
  Alcotest.check_raises "not an uplink" Not_found (fun () ->
      ignore (Overlay.origin_of_tunnel ov (-1)))

let test_overlay_cover_and_failover () =
  let e, topo, ov, _ = overlay_rig ~n:2 in
  let h = Scotch_topo.Host.create e ~id:1 ~name:"h" in
  Scotch_topo.Topology.add_host topo h;
  (* covered by both, primary = 101 (registered last) *)
  Overlay.cover_host ov ~vswitch_dpid:100 h;
  Overlay.cover_host ov ~vswitch_dpid:101 h;
  Alcotest.(check int) "primary cover" 101 (Overlay.cover_of_ip ov (Scotch_topo.Host.ip h));
  (* primary dies: fall back to any alive vswitch with a delivery tunnel *)
  ignore (Overlay.mark_dead ov 101);
  Alcotest.(check int) "failover cover" 100 (Overlay.cover_of_ip ov (Scotch_topo.Host.ip h));
  Alcotest.(check int) "alive count" 1 (Overlay.alive_count ov)

let test_overlay_backup_promotion () =
  let e, topo, ov, _ = overlay_rig ~n:2 in
  let backup =
    Scotch_switch.Switch.create e ~dpid:150 ~name:"backup" ~profile:fast_profile ()
  in
  Scotch_topo.Topology.add_switch topo backup;
  Overlay.add_vswitch ov backup ~backup:true;
  Alcotest.(check int) "two active" 2 (List.length (Overlay.active_vswitches ov));
  (match Overlay.mark_dead ov 100 with
  | Some promoted -> Alcotest.(check int) "backup promoted" 150 promoted
  | None -> Alcotest.fail "no promotion");
  Alcotest.(check int) "still two active" 2 (List.length (Overlay.active_vswitches ov));
  (* recovery rejoins as backup *)
  Overlay.mark_recovered ov 100;
  Alcotest.(check int) "recovered not active" 2 (List.length (Overlay.active_vswitches ov));
  Alcotest.(check int) "three alive" 3 (Overlay.alive_count ov)

(* ------------------------------------------------------------------ *)
(* Tenancy *)

let tenancy_of config = Tenancy.create config ~admission_sum:(fun ~sched:_ ~ofa:_ -> 0)

let tenanted specs =
  tenancy_of
    { Config.default with
      Config.tenancy =
        Some { Config.tenants = specs; tenant_of = (fun ~first_hop:_ ~ingress_port:_ -> 1) } }

let test_tenancy_slices () =
  let specs =
    [ Tenant.make ~id:1 ~share:3 "a"; Tenant.make ~id:2 "b"; Tenant.make ~id:3 ~share:2 "c" ]
  in
  let tn = tenanted specs in
  let assigned = List.init 7 (fun i -> 100 + i) in
  let slices = Tenancy.group_slices tn assigned in
  Alcotest.(check (list int)) "one select group per tenant, from group 1" [ 1; 2; 3 ]
    (List.map fst slices);
  Alcotest.(check (list int)) "contiguous and disjoint: the slices tile the assignment" assigned
    (List.concat_map snd slices);
  let shares = List.map (fun (s : Tenant.spec) -> (s.Tenant.id, s.Tenant.share)) specs in
  let counts = Tenant.apportion ~slots:7 ~shares in
  Alcotest.(check (list int)) "largest-remainder sizes" [ 4; 1; 2 ] (List.map snd counts);
  Alcotest.(check (list int)) "slice sizes follow the apportionment" (List.map snd counts)
    (List.map (fun (_, sl) -> List.length sl) slices);
  Alcotest.(check (list int)) "a tenant's slice" [ 104 ] (Tenancy.slice_of_tenant tn assigned 2);
  (* one slot for three tenants: the two left without one share it all *)
  let small = [ 100 ] in
  List.iter
    (fun (gid, sl) -> Alcotest.(check (list int)) (Printf.sprintf "group %d slice" gid) small sl)
    (Tenancy.group_slices tn small);
  Alcotest.(check (list int)) "empty slice falls back to the whole assignment" small
    (Tenancy.slice_of_tenant tn small 3);
  Alcotest.(check int) "no shared table-1 balancer" 0 (List.length (Tenancy.balancer tn))

let test_tenancy_untenanted () =
  let tn = tenancy_of Config.default in
  let assigned = [ 100; 101; 102 ] in
  Alcotest.(check (list (pair int (list int)))) "one slice in group 1" [ (1, assigned) ]
    (Tenancy.group_slices tn assigned);
  Alcotest.(check (list int)) "default tenant hashes over everything" assigned
    (Tenancy.slice_of_tenant tn assigned Tenant.default_id);
  Alcotest.(check int) "attributed to the default tenant" Tenant.default_id
    (Tenancy.tenant_of_flow tn ~first_hop:1 ~ingress_port:7);
  Alcotest.(check int) "one shared table-1 balancer" 1 (List.length (Tenancy.balancer tn))

(* ------------------------------------------------------------------ *)
(* Detection *)

(* One pool member (dpid 100) and one physical switch (dpid 1) with no
   uplink yet. *)
let detection_rig detection =
  let e, topo, ov, vsws = overlay_rig ~n:1 in
  let ctrl = Scotch_controller.Controller.create e topo in
  let phys =
    Scotch_switch.Switch.create e ~dpid:1 ~name:"p" ~profile:Scotch_switch.Profile.pica8 ()
  in
  Scotch_topo.Topology.add_switch topo phys;
  let d =
    Detection.create ctrl ov (Flow_info_db.create ()) { Config.default with Config.detection }
  in
  (e, ctrl, ov, phys, vsws.(0), d)

let test_detection_exact_ledger () =
  let e, ctrl, _, _, vsw, d = detection_rig Config.Exact_polling in
  Detection.attach_sampler d vsw;
  Alcotest.(check bool) "no sampler under exact polling" true
    (Scotch_switch.Switch.sampler vsw = None);
  let sw = Scotch_controller.Controller.connect ctrl vsw ~latency:0.001 in
  let vflow i =
    match
      Scotch_switch.Flow_table.insert (Scotch_switch.Switch.table vsw 0)
        ~now:(Scotch_sim.Engine.now e) ~priority:10
        ~match_:(Scotch_openflow.Of_match.exact_flow (key i)) ~instructions:[]
        ~idle_timeout:0.0 ~hard_timeout:0.0 ~cookie:Config.cookie_vflow
    with
    | Ok () -> ()
    | Error `Table_full -> Alcotest.fail "table full"
  in
  vflow 1;
  vflow 2;
  Detection.start d ~vswitch:(fun dpid -> if dpid = 100 then Some sw else None)
    ~on_large:(fun ~vdpid:_ _ -> ());
  (* one poll at t = 1 s, answered well before the next *)
  Scotch_sim.Engine.run ~until:1.5 e;
  let open Scotch_openflow in
  let size p = Of_wire.size (Of_msg.make ~xid:0 p) in
  let stat i =
    { Of_msg.Stats.table_id = 0; priority = 10; match_ = Of_match.exact_flow (key i);
      packet_count = 0; byte_count = 0; duration = 0.0; cookie = Config.cookie_vflow }
  in
  let request =
    Of_msg.Flow_stats_request { Of_msg.Stats.table_id = 0xFF; match_ = Of_match.wildcard }
  in
  let reply = Of_msg.Flow_stats_reply [ stat 1; stat 2 ] in
  Alcotest.(check (pair int int)) "request 1 unit, reply 1 + 2 records"
    (1 + (1 + 2), size request + size reply)
    (Detection.exact_channel d);
  Alcotest.(check (pair int int)) "nothing on the sampled ledger" (0, 0)
    (Detection.sampled_channel d)

(* The exact ledger charges a reply in the walk that reads it.  On
   random vswitch tables — exact vflow rules and coarser rules of other
   shapes, up to replies past 64 KiB — one poll must charge 1 + 1 + n
   units and the Of_wire.size of the request and of the reply the
   vswitch sent. *)
let prop_detection_exact_charge =
  QCheck.Test.make ~name:"exact ledger = Of_wire.size of request and reply" ~count:25
    QCheck.(pair (int_bound 1100) (int_bound 40))
    (fun (n_vflows, n_coarse) ->
      let e, ctrl, _, _, vsw, d = detection_rig Config.Exact_polling in
      let sw = Scotch_controller.Controller.connect ctrl vsw ~latency:0.001 in
      let insert ~cookie match_ =
        match
          Scotch_switch.Flow_table.insert (Scotch_switch.Switch.table vsw 0)
            ~now:(Scotch_sim.Engine.now e) ~priority:10 ~match_ ~instructions:[]
            ~idle_timeout:0.0 ~hard_timeout:0.0 ~cookie
        with
        | Ok () -> ()
        | Error `Table_full -> Alcotest.fail "table full"
      in
      for i = 1 to n_vflows do
        insert ~cookie:Config.cookie_vflow (Of_match.exact_flow (key i))
      done;
      for i = 1 to n_coarse do
        insert ~cookie:Config.cookie_green
          (Of_match.with_in_port i (Of_match.with_ip_dst (Ipv4_addr.of_int i) Of_match.wildcard))
      done;
      let request = { Scotch_openflow.Of_msg.Stats.table_id = 0xFF; match_ = Of_match.wildcard } in
      let sent = Scotch_switch.Switch.flow_stats vsw request in
      Detection.start d ~vswitch:(fun dpid -> if dpid = 100 then Some sw else None)
        ~on_large:(fun ~vdpid:_ _ -> ());
      Scotch_sim.Engine.run ~until:1.5 e;
      let size p =
        Scotch_openflow.Of_wire.size (Scotch_openflow.Of_msg.make ~xid:0 p)
      in
      let n = n_vflows + n_coarse in
      Detection.exact_channel d
      = ( 1 + 1 + n,
          size (Scotch_openflow.Of_msg.Flow_stats_request request)
          + size (Scotch_openflow.Of_msg.Flow_stats_reply sent) ))

(* A vswitch that dies with a stats poll in flight never answers it:
   the poll expires after [stats_poll_interval] instead of leaving its
   pending entry behind for the rest of the run. *)
let test_detection_poll_expires () =
  let e, ctrl, ov, _, vsw, d = detection_rig Config.Exact_polling in
  let module C = Scotch_controller.Controller in
  let sw = C.connect ctrl vsw ~latency:0.001 in
  Detection.start d ~vswitch:(fun dpid -> if dpid = 100 then Some sw else None)
    ~on_large:(fun ~vdpid:_ _ -> ());
  (* the poll leaves at t = 1 s and reaches the vswitch ~1 ms later *)
  Scotch_sim.Engine.run ~until:1.0005 e;
  Alcotest.(check int) "poll in flight" 1 (C.pending_requests ctrl);
  Scotch_switch.Switch.set_failed vsw true;
  Overlay.iter_vswitches ov (fun v -> v.Overlay.alive <- false);
  let interval = Config.default.Config.stats_poll_interval in
  Scotch_sim.Engine.run ~until:(1.0 +. interval +. 0.01) e;
  Alcotest.(check int) "nothing pending" 0 (C.pending_requests ctrl);
  Alcotest.(check int) "the poll expired" 1 (C.counters ctrl).C.expired_requests

let test_detection_sampler_duty () =
  let _, _, ov, phys, vsw, d = detection_rig (Config.Sampled 0.5) in
  let enabled () =
    match Scotch_switch.Switch.sampler vsw with
    | Some s -> Scotch_telemetry.Sampler.enabled s
    | None -> Alcotest.fail "no sampler attached"
  in
  Detection.attach_sampler d vsw;
  Alcotest.(check bool) "attached disabled" false (enabled ());
  Overlay.connect_switch ov phys ~to_vswitches:[ 100 ];
  Alcotest.(check bool) "an uplink alone gives no duty" false (enabled ());
  Detection.refresh_duty d;
  Alcotest.(check bool) "duty at the refresh" true (enabled ())

(* ------------------------------------------------------------------ *)
(* Scotch app invariants (via the experiment testbed) *)

let test_select_assignment_agrees_with_group () =
  (* predicted_entry must agree with what the data plane's select group
     does, or pre-activation routing decisions contradict the switch *)
  let net = Scotch_experiments.Testbed.scotch_net ~num_vswitches:4 () in
  let attack = Scotch_experiments.Testbed.attack_source net ~rate:1000.0 () in
  Scotch_workload.Source.start attack;
  Scotch_experiments.Testbed.run_until net ~until:5.0;
  (* after activation, flows routed via the overlay carry an entry
     vswitch: check they spread over multiple vswitches *)
  let entries = Hashtbl.create 8 in
  Flow_info_db.iter (Scotch.db net.Scotch_experiments.Testbed.app) (fun e ->
      match e.Flow_info_db.kind with
      | Flow_info_db.Overlay { entry_vswitch } -> Hashtbl.replace entries entry_vswitch ()
      | _ -> ());
  Alcotest.(check bool) "flows spread over >= 3 vswitches" true (Hashtbl.length entries >= 3)

let test_activation_threshold () =
  let net = Scotch_experiments.Testbed.scotch_net () in
  (* a quiet client below the activation threshold *)
  let client = Scotch_experiments.Testbed.client_source net ~i:0 ~rate:20.0 () in
  Scotch_workload.Source.start client;
  Scotch_experiments.Testbed.run_until net ~until:5.0;
  Alcotest.(check bool) "no activation at low load" false
    (Scotch.is_active net.Scotch_experiments.Testbed.app Scotch_experiments.Testbed.edge_dpid);
  Alcotest.(check int) "no activations counted" 0
    (Scotch.counters net.Scotch_experiments.Testbed.app).Scotch.activations

let test_policy_green_red_rules () =
  let net = Scotch_experiments.Testbed.scotch_net () in
  let server_ip = Scotch_topo.Host.ip net.Scotch_experiments.Testbed.server in
  let _mb, seg =
    Scotch_experiments.Testbed.add_firewall_segment net ~classify:(fun k ->
        Ipv4_addr.equal k.Flow_key.ip_dst server_ip)
  in
  (* green rules exist for every vswitch entry tunnel + every covered host *)
  let greens = Policy.green_rules net.Scotch_experiments.Testbed.policy net.Scotch_experiments.Testbed.overlay seg in
  Alcotest.(check bool) "one green per vswitch + hosts" true (List.length greens >= 4);
  List.iter
    (fun ((_ : int), (fm : Scotch_openflow.Of_msg.Flow_mod.t)) ->
      Alcotest.(check bool) "green cookie" true
        (fm.Scotch_openflow.Of_msg.Flow_mod.cookie = Config.cookie_green);
      Alcotest.(check int) "green priority" Policy.green_priority
        fm.Scotch_openflow.Of_msg.Flow_mod.priority)
    greens;
  (* red rules: higher priority than green *)
  let reds =
    Policy.red_rules seg (Port_actions.create ()) ~match_:(Of_match.exact_flow (key 1))
      ~exit_port:1
  in
  Alcotest.(check int) "two red rules (S_U, S_D)" 2 (List.length reds);
  List.iter
    (fun ((_ : int), (_ : int), (fm : Scotch_openflow.Of_msg.Flow_mod.t)) ->
      Alcotest.(check bool) "red beats green" true
        (fm.Scotch_openflow.Of_msg.Flow_mod.priority > Policy.green_priority))
    reds

let test_policy_classifier () =
  let net = Scotch_experiments.Testbed.scotch_net () in
  let server_ip = Scotch_topo.Host.ip net.Scotch_experiments.Testbed.server in
  let _, seg =
    Scotch_experiments.Testbed.add_firewall_segment net ~classify:(fun k ->
        Ipv4_addr.equal k.Flow_key.ip_dst server_ip)
  in
  let to_server =
    Flow_key.make ~ip_src:(Ipv4_addr.make 10 0 0 1) ~ip_dst:server_ip ~proto:6 ~l4_src:1
      ~l4_dst:80 ()
  in
  (match Policy.classify net.Scotch_experiments.Testbed.policy to_server with
  | Some s -> Alcotest.(check string) "segment name" seg.Policy.seg_name s.Policy.seg_name
  | None -> Alcotest.fail "policy flow not classified");
  let elsewhere = { to_server with Flow_key.ip_dst = Ipv4_addr.make 10 0 0 77 } in
  Alcotest.(check bool) "other flows unclassified" true
    (Policy.classify net.Scotch_experiments.Testbed.policy elsewhere = None)

(* Scotch.create rejects a malformed tenant set before anything is
   built: an empty list (an empty serve frame), duplicate ids, and
   records that bypass [Tenant.make]'s share and budget checks. *)
let test_create_rejects_bad_tenancy () =
  let e = Scotch_sim.Engine.create () in
  let topo = Scotch_topo.Topology.create e in
  let ctrl = Scotch_controller.Controller.create e topo in
  let ok = Tenant.make ~id:1 "a" in
  let create tenants =
    let tenancy = { Config.tenants; tenant_of = (fun ~first_hop:_ ~ingress_port:_ -> 1) } in
    Scotch.create ctrl (Overlay.create topo) (Policy.create topo)
      { Config.default with Config.tenancy = Some tenancy }
  in
  List.iter
    (fun (what, tenants) ->
      match create tenants with
      | _ -> Alcotest.failf "%s accepted" what
      | exception Invalid_argument _ -> ())
    [ ("empty tenant list", []);
      ("duplicate ids", [ ok; Tenant.make ~id:1 "b" ]);
      ("share 0", [ { ok with Tenant.share = 0 } ]);
      ("sched_budget 0", [ { ok with Tenant.sched_budget = Some 0 } ]);
      ("pin_budget 0", [ { ok with Tenant.pin_budget = Some 0 } ]) ]

(* ------------------------------------------------------------------ *)
(* Per-flow values shared per run *)

module Tb = Scotch_experiments.Testbed
module C = Scotch_controller.Controller
module Of_action = Scotch_openflow.Of_action
module Port_no = Scotch_openflow.Of_types.Port_no

(* The evaluation network with an overlay threshold of 0, so every new
   flow the edge switch raises is routed over the overlay at once. *)
let overlay_net () =
  Tb.scotch_net ~config:{ Config.default with Config.overlay_threshold = 0 } ()

(* New flow [i] as its entry vswitch raises it (§5.2): a SYN from the
   attacker's port to the first server that the edge switch redirected
   over one of its uplink tunnels, with the ingress port as the inner
   MPLS label.  Returns the vswitch's handle and the Packet-In. *)
let overlay_packet_in (net : Tb.scotch_net) i =
  let uplinks = Array.of_list (Overlay.uplinks_of net.Tb.overlay Tb.edge_dpid) in
  let vdpid, tid = uplinks.(i mod Array.length uplinks) in
  let syn =
    Packet.tcp_syn ~flow_id:i ~created:0.0 ~src_mac:(Mac.of_host_id 99)
      ~dst_mac:(Mac.of_host_id 1)
      ~ip_src:(Ipv4_addr.of_int (0x0B000000 + i))
      ~ip_dst:(Scotch_topo.Host.ip net.Tb.server) ~src_port:(1024 + (i mod 50_000)) ~dst_port:80
      ()
  in
  ( C.switch_exn net.Tb.ctrl vdpid,
    { Scotch_openflow.Of_msg.Packet_in.buffer_id = 0;
      reason = Scotch_openflow.Of_types.Packet_in_reason.No_match; table_id = 0;
      in_port = Scotch_topo.Topology.tunnel_port_of_id tid; tunnel_id = Some tid;
      packet = Packet.push_encap (Headers.Encap.mpls Tb.attacker_edge_port) syn } )

(* Route flows [from, from + n) over the overlay, 100 Packet-Ins every
   50 ms (the vswitch agents' queues hold 5,000 messages), then let the
   installs land. *)
let route_overlay_flows (net : Tb.scotch_net) ~from ~n =
  let app = Scotch.app net.Tb.app in
  let rec batch i =
    if i < from + n then begin
      for k = i to min (i + 100) (from + n) - 1 do
        let sw, pi = overlay_packet_in net k in
        ignore (app.C.packet_in sw pi)
      done;
      Tb.run_until net ~until:(Scotch_sim.Engine.now net.Tb.engine +. 0.05);
      batch (i + 100)
    end
  in
  batch from;
  Tb.run_until net ~until:(Scotch_sim.Engine.now net.Tb.engine +. 0.5)

(* The instruction lists of every vflow rule at the vswitches. *)
let vflow_instructions (net : Tb.scotch_net) =
  let acc = ref [] in
  Array.iter
    (fun v ->
      Scotch_switch.Flow_table.iter_rules (Scotch_switch.Switch.table v 0)
        (fun (r : Scotch_switch.Classifier.rule) ->
          if r.Scotch_switch.Classifier.cookie = Config.cookie_vflow then
            acc := r.Scotch_switch.Classifier.instructions :: !acc))
    net.Tb.vswitches;
  Array.of_list !acc

(* Heap words the instruction lists hold, each shared block once,
   without the array that gathers them. *)
let instruction_words instrs =
  Obj.reachable_words (Obj.repr instrs) - (Array.length instrs + 1)

(* Rules that forward alike hold one value: the instruction words stay
   put from 500 flows to 5,000 (each rule building its own list costs
   12 or 15 words a rule), and any two equal lists are [==]. *)
let test_vflow_instructions_shared () =
  let net = overlay_net () in
  route_overlay_flows net ~from:0 ~n:500;
  let at_500 = vflow_instructions net in
  route_overlay_flows net ~from:500 ~n:4_500;
  let at_5000 = vflow_instructions net in
  Alcotest.(check int) "every flow routed over the overlay" 5_000
    (Scotch.counters net.Tb.app).Scotch.flows_overlay;
  Alcotest.(check bool) "one or two rules a flow" true
    (Array.length at_500 >= 500 && Array.length at_5000 >= 5_000);
  Alcotest.(check int) "instruction words at 5,000 flows = at 500" (instruction_words at_500)
    (instruction_words at_5000);
  let first = Hashtbl.create 8 in
  Array.iter
    (fun instrs ->
      match Hashtbl.find_opt first instrs with
      | None -> Hashtbl.replace first instrs instrs
      | Some v -> if v != instrs then Alcotest.fail "equal instruction lists not shared")
    at_5000;
  Alcotest.(check bool) "entry and cover shapes both in use" true (Hashtbl.length first >= 2)

(* Two networks in one process build their own values: no instruction
   list of one is a list of the other. *)
let test_vflow_instructions_per_run () =
  let a = overlay_net () and b = overlay_net () in
  route_overlay_flows a ~from:0 ~n:200;
  route_overlay_flows b ~from:0 ~n:200;
  let ia = vflow_instructions a and ib = vflow_instructions b in
  Alcotest.(check bool) "both routed" true (Array.length ia > 0 && Array.length ib > 0);
  Alcotest.(check bool) "no value shared across runs" false
    (Array.exists (fun x -> Array.exists (fun y -> x == y) ib) ia)

(* The words one new overlay flow's Packet-In allocates while the
   controller handles it: admission, routing, two vflow FlowMods and
   the Packet-Out, averaged over 200 flows once the overlay is active
   and every output port has been seen.  Measured at 125.2 words on
   OCaml 5.1; the bound is that + 25 %.  Building each rule's
   instruction list and boxing the overlay lookups' results in options
   cost 169.7. *)
let test_overlay_packet_in_words () =
  let net = overlay_net () in
  route_overlay_flows net ~from:0 ~n:100;
  let app = Scotch.app net.Tb.app in
  let pins = Array.init 200 (fun i -> overlay_packet_in net (100 + i)) in
  let before = Gc.minor_words () in
  Array.iter (fun (sw, pi) -> ignore (app.C.packet_in sw pi)) pins;
  let words = (Gc.minor_words () -. before) /. 200.0 in
  Alcotest.(check int) "all routed over the overlay" 300
    (Scotch.counters net.Tb.app).Scotch.flows_overlay;
  Alcotest.(check bool) (Printf.sprintf "%.1f words a flow <= 156.5" words) true (words <= 156.5)

(* Each shared shape equals what a rule or a Packet-Out used to build
   for itself, for physical ports and tunnel ports alike, and a later
   lookup returns the same value. *)
let prop_port_actions_shapes =
  QCheck.Test.make ~name:"shared output shapes = the per-flow build" ~count:100
    QCheck.(pair (small_list (int_bound 9_999)) (small_list (int_bound 5_000)))
    (fun (ports, tids) ->
      let t = Port_actions.create () in
      let ports = ports @ List.map Scotch_topo.Topology.tunnel_port_of_id tids in
      let first = List.map (Port_actions.find t) ports in
      List.for_all2
        (fun port (s : Port_actions.shapes) ->
          let out = Of_action.Output (Port_no.Physical port) in
          Port_actions.find t port == s
          && s.Port_actions.out = [ out ]
          && s.Port_actions.out_instructions = Of_action.output (Port_no.Physical port)
          && s.Port_actions.pop = [ Of_action.Pop_mpls; out ]
          && s.Port_actions.pop_instructions
             = [ Of_action.Apply_actions [ Of_action.Pop_mpls; out ] ])
        ports first)

let () =
  Alcotest.run "scotch_core"
    [ ( "config",
        [ Alcotest.test_case "cookies distinct" `Quick test_config_cookies_distinct;
          Alcotest.test_case "R below loss-free rate" `Quick test_config_r_below_lossfree ] );
      ( "flow_info_db",
        [ Alcotest.test_case "admit dedup" `Quick test_db_admit_dedup;
          Alcotest.test_case "kind accounting" `Quick test_db_kind_accounting;
          Alcotest.test_case "withdrawal pin filter" `Quick test_db_overlay_flows_filter;
          QCheck_alcotest.to_alcotest prop_db_model;
          Alcotest.test_case "1000 keys differing in ip_dst" `Quick test_db_ip_dst_keys;
          Alcotest.test_case "find_match allocation" `Quick test_db_find_match_allocation ] );
      ( "sched",
        [ Alcotest.test_case "thresholds" `Quick test_sched_thresholds;
          Alcotest.test_case "priorities" `Quick test_sched_priorities;
          Alcotest.test_case "round robin" `Quick test_sched_round_robin;
          Alcotest.test_case "no differentiation = one queue" `Quick
            test_sched_no_differentiation_single_queue;
          Alcotest.test_case "rate pacing" `Quick test_sched_rate_pacing;
          Alcotest.test_case "drop threshold" `Quick test_sched_drop_threshold;
          Alcotest.test_case "drop oldest" `Quick test_sched_drop_oldest;
          Alcotest.test_case "priority preserving" `Quick test_sched_priority_preserving;
          Alcotest.test_case "deadline expiry" `Quick test_sched_deadline_expiry;
          Alcotest.test_case "budget refusal" `Quick test_sched_budget_refusal;
          QCheck_alcotest.to_alcotest prop_sched_rr_fairness ] );
      ( "overlay",
        [ Alcotest.test_case "full mesh" `Quick test_overlay_full_mesh;
          Alcotest.test_case "uplinks and origin map" `Quick test_overlay_uplinks_and_origin;
          Alcotest.test_case "cover failover" `Quick test_overlay_cover_and_failover;
          Alcotest.test_case "backup promotion" `Quick test_overlay_backup_promotion ] );
      ( "tenancy",
        [ Alcotest.test_case "select-group slices" `Quick test_tenancy_slices;
          Alcotest.test_case "untenanted" `Quick test_tenancy_untenanted ] );
      ( "detection",
        [ Alcotest.test_case "exact-polling ledger" `Quick test_detection_exact_ledger;
          Alcotest.test_case "sampler duty" `Quick test_detection_sampler_duty;
          Alcotest.test_case "a dead vswitch's poll expires" `Quick test_detection_poll_expires;
          QCheck_alcotest.to_alcotest prop_detection_exact_charge ] );
      ( "scotch_app",
        [ Alcotest.test_case "overlay entry spread" `Quick test_select_assignment_agrees_with_group;
          Alcotest.test_case "activation threshold" `Quick test_activation_threshold;
          Alcotest.test_case "policy green/red rules" `Quick test_policy_green_red_rules;
          Alcotest.test_case "policy classifier" `Quick test_policy_classifier;
          Alcotest.test_case "create rejects bad tenancy" `Quick
            test_create_rejects_bad_tenancy ] );
      ( "sharing",
        [ Alcotest.test_case "vflow instructions shared" `Quick test_vflow_instructions_shared;
          Alcotest.test_case "one table per run" `Quick test_vflow_instructions_per_run;
          Alcotest.test_case "overlay Packet-In words" `Quick test_overlay_packet_in_words;
          QCheck_alcotest.to_alcotest prop_port_actions_shapes ] ) ]
