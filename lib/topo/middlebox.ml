(** Stateful middleboxes (§5.4).

    A middlebox sits between an upstream switch S_U and a downstream
    switch S_D.  It is {e stateful}: the first packet of a flow
    establishes state; a mid-flow packet arriving with no established
    state is rejected ("the new middlebox may either reject the flow or
    handle the flow differently due to lack of pre-established context").
    This is exactly the failure Scotch's policy-consistency design must
    avoid, and the counter [state_violations] is how tests observe it.

    The middlebox also requires packets to arrive {e decapsulated}
    ("the middlebox sees the original packet without the tunnel
    header"); an encapsulated arrival is counted as a violation and
    dropped. *)

open Scotch_packet

type t = {
  state : unit Flow_key.Hashtbl.t;
  mutable out : Scotch_sim.Link.t option; (* toward S_D *)
  egress : Scotch_sim.Egress.t; (* sends waiting out the processing delay *)
  mutable processed : int;
  mutable state_violations : int;
  mutable encap_violations : int;
}

(* per-packet processing delay, seconds *)
let latency = 50e-6

let create engine () =
  { state = Flow_key.Hashtbl.create 256; out = None;
    egress = Scotch_sim.Egress.create engine ~delay:latency; processed = 0;
    state_violations = 0; encap_violations = 0 }

(** Set the link toward the downstream switch S_D. *)
let connect_out t link = t.out <- Some link

(** [receive t pkt] processes one packet from S_U. *)
let receive t pkt =
  if Packet.is_encapsulated pkt then begin
    t.encap_violations <- t.encap_violations + 1
  end
  else begin
    let key = Packet.flow_key pkt in
    let has_state = Flow_key.Hashtbl.mem t.state key in
    if (not has_state) && pkt.Packet.meta.seq_in_flow > 0 then
      (* mid-connection packet without establishment: reject *)
      t.state_violations <- t.state_violations + 1
    else begin
      if not has_state then Flow_key.Hashtbl.replace t.state key ();
      t.processed <- t.processed + 1;
      match t.out with
      | None -> ()
      | Some _ as out -> Scotch_sim.Egress.send t.egress out pkt
    end
  end

let processed t = t.processed
let state_violations t = t.state_violations
let encap_violations t = t.encap_violations
let flows_tracked t = Flow_key.Hashtbl.length t.state
