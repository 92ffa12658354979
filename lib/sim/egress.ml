(** A device's output stage: sends that wait out a constant delay, in
    two rings kept in step, and one registered handler that hands the
    oldest on to its link. *)

open Scotch_packet

type t = {
  engine : Engine.t;
  delay : float;
  links : Link.t option Ring.t;
  pkts : Packet.t Ring.t;
  handler : Engine.handler;
}

let create engine ~delay =
  let links = Ring.create None and pkts = Ring.create Packet.placeholder in
  let handler =
    Engine.handler engine (fun () ->
        let out = Ring.pop links and pkt = Ring.pop pkts in
        match out with Some link -> Link.send link pkt | None -> ())
  in
  { engine; delay; links; pkts; handler }

let send t out pkt =
  Ring.push t.links out;
  Ring.push t.pkts pkt;
  Engine.fire t.engine ~delay:t.delay t.handler
