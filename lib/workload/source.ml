(** A traffic source: launches new flows from a host toward a
    destination according to an arrival process, each flow shaped by a
    spec sampler.  Clients, attackers and trace replay are all built on
    this. *)

open Scotch_packet
open Scotch_topo
open Scotch_util

type arrival = Poisson | Constant

type t = {
  engine : Scotch_sim.Engine.t;
  rng : Rng.t;
  host : Host.t;
  mutable dst_ip : Ipv4_addr.t;
  mutable dst_mac : Mac.t;
  mutable rate : float; (* new flows per second *)
  arrival : arrival;
  spec_of : Rng.t -> Flow_gen.flow_spec;
  spoof_sources : bool;
      (* spoof a fresh source IP per flow — the hping3 DDoS behaviour of
         §3.2 ("we simulate the new flows by spoofing each packet's
         source IP address") *)
  mutable spoof_counter : int;
  mutable launched : Flow_gen.launched list; (* reversed; empty when spoofing *)
  mutable launched_count : int;
  mutable packets_sent : int;
  mutable running : bool;
  port_base : int;          (* this source's ephemeral-port window *)
  mutable next_port : int;
}

(* Each source owns a disjoint window of the ephemeral port range
   (allocated per engine, so runs stay deterministic per seed): two
   sources on the same host never emit colliding 5-tuples. *)
let port_window = 3000

let fresh_port t =
  let p = t.port_base + (t.next_port mod port_window) in
  t.next_port <- t.next_port + 1;
  p

let create engine ~rng ~host ~dst ~rate ?(arrival = Poisson)
    ?(spec_of = fun _ -> Flow_gen.syn_spec) ?(spoof_sources = false) () =
  let idx = Scotch_sim.Engine.fresh_user_id engine in
  { engine; rng; host; dst_ip = Host.ip dst; dst_mac = Host.mac dst; rate; arrival; spec_of;
    spoof_sources; spoof_counter = 0; launched = []; launched_count = 0;
    packets_sent = 0; running = false; port_base = 1024 + (idx mod 21 * port_window);
    next_port = 0 }

let interarrival t =
  match t.arrival with
  | Constant -> 1.0 /. t.rate
  | Poisson -> Rng.exponential t.rng ~rate:t.rate

(* The wait before a flow's next packet, with ±1 % clock jitter:
   independent oscillators never stay in phase with the switch's
   service clock, and exact lockstep in a deterministic simulator
   creates correlation artifacts. *)
let gap t (spec : Flow_gen.flow_spec) = spec.Flow_gen.interval *. (0.99 +. Rng.float t.rng 0.02)

let send_flow_packets t ~(launched : Flow_gen.launched) ~src_mac ~ip_src ~src_port =
  let spec = launched.Flow_gen.spec in
  (* snapshot the destination: a retargeted source must not corrupt
     flows already in flight *)
  let dst_ip = t.dst_ip and dst_mac = t.dst_mac in
  (* once launched, a flow runs to completion even if the source's
     arrival process stops *)
  if spec.Flow_gen.packets > 0 then begin
    (* the headers are built once, in the first packet; every later
       packet is the first restamped *)
    let first =
      Flow_gen.packet ~flow_id:launched.Flow_gen.flow_id
        ~created:(Scotch_sim.Engine.now t.engine) ~src_mac ~dst_mac ~ip_src ~ip_dst:dst_ip
        ~src_port ~dst_port:80 ~spec ()
    in
    t.packets_sent <- t.packets_sent + 1;
    Host.send t.host first;
    if spec.Flow_gen.packets > 1 then begin
      (* one closure and one counter per flow, rescheduled for each
         later packet *)
      let seq = ref 1 in
      let rec later () =
        let n = !seq in
        let pkt =
          Packet.with_meta first ~created:(Scotch_sim.Engine.now t.engine) ~seq_in_flow:n
        in
        t.packets_sent <- t.packets_sent + 1;
        Host.send t.host pkt;
        seq := n + 1;
        if n + 1 < spec.Flow_gen.packets then
          Scotch_sim.Engine.schedule t.engine ~delay:(gap t spec) later
      in
      Scotch_sim.Engine.schedule t.engine ~delay:(gap t spec) later
    end
  end

(** Launch one flow immediately (also used by the trace replayer).
    [spec] overrides the source's sampler for this flow. *)
let launch_flow ?spec t =
  let now = Scotch_sim.Engine.now t.engine in
  let spec = match spec with Some s -> s | None -> t.spec_of t.rng in
  let flow_id = Scotch_sim.Engine.fresh_flow_id t.engine in
  let ip_src, src_mac =
    if t.spoof_sources then begin
      t.spoof_counter <- t.spoof_counter + 1;
      (* spoofed sources from 172.16.0.0/12, never reused in one run *)
      ( Ipv4_addr.of_int (Ipv4_addr.to_int (Ipv4_addr.make 172 16 0 0) + t.spoof_counter),
        Host.mac t.host )
    end
    else (Host.ip t.host, Host.mac t.host)
  in
  let src_port = fresh_port t in
  (* a flow's first packet is a TCP SYN exactly when it is its only,
     empty packet ({!Flow_gen.packet}) *)
  let proto =
    if spec.Flow_gen.packets = 1 && spec.Flow_gen.payload = 0 then Headers.Ipv4.proto_tcp
    else Headers.Ipv4.proto_udp
  in
  let key = Flow_key.make ~ip_src ~ip_dst:t.dst_ip ~proto ~l4_src:src_port ~l4_dst:80 () in
  let launched = { Flow_gen.flow_id; key; started = now; spec } in
  (* an attacker's flows are counted, never looked up again *)
  if not t.spoof_sources then t.launched <- launched :: t.launched;
  t.launched_count <- t.launched_count + 1;
  send_flow_packets t ~launched ~src_mac ~ip_src ~src_port;
  launched

let rec arrival_loop t =
  if t.running then begin
    ignore (launch_flow t);
    Scotch_sim.Engine.schedule t.engine ~delay:(interarrival t) (fun () -> arrival_loop t)
  end

(** [start t] begins launching flows; the first arrives after one
    interarrival time. *)
let start t =
  if not t.running then begin
    t.running <- true;
    Scotch_sim.Engine.schedule t.engine ~delay:(interarrival t) (fun () -> arrival_loop t)
  end

let stop t = t.running <- false

let set_rate t rate = t.rate <- rate

(** Retarget subsequent flows at a different destination host. *)
let set_destination t ~dst =
  t.dst_ip <- Host.ip dst;
  t.dst_mac <- Host.mac dst

(** Flows launched so far, newest first. *)
let launched t = t.launched

let launched_count t = t.launched_count
let packets_sent t = t.packets_sent

(** Fraction of this source's flows with no packet delivered at [dst] —
    the paper's {e client flow failure fraction} (§3.2).  Only flows
    launched in [\[since, until\]] are considered (excludes flows that
    had no time to complete). *)
let failure_fraction t ~dst ?(since = 0.0) ?(until = infinity) () =
  let total = ref 0 and failed = ref 0 in
  List.iter
    (fun (l : Flow_gen.launched) ->
      if l.Flow_gen.started >= since && l.Flow_gen.started <= until then begin
        incr total;
        match Host.flow_record dst l.Flow_gen.flow_id with
        | Some _ -> ()
        | None -> incr failed
      end)
    t.launched;
  if !total = 0 then 0.0 else float_of_int !failed /. float_of_int !total

(** Fraction of flows fully delivered (every packet arrived). *)
let completion_fraction t ~dst () =
  let total = ref 0 and complete = ref 0 in
  List.iter
    (fun (l : Flow_gen.launched) ->
      incr total;
      match Host.flow_record dst l.Flow_gen.flow_id with
      | Some r when r.Host.packets >= l.Flow_gen.spec.Flow_gen.packets -> incr complete
      | Some _ | None -> ())
    t.launched;
  if !total = 0 then 0.0 else float_of_int !complete /. float_of_int !total
