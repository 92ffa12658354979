(** Invariant: table-miss coverage and overlay symmetry.  Every
    controlled switch needs its priority-0 wildcard miss rule; every
    uplink tunnel must be registered (with a real device port) in the
    origin map (§5.2); every host needs an alive cover with a delivery
    tunnel and a mesh return path from every entry vswitch (§4.1). *)

open Scotch_packet
open Scotch_switch
module D = Diagnostic
module S = Snapshot

let name = "coverage"

let has_miss_rule (n : S.node) =
  match S.table n 0 with
  | None -> false
  | Some c -> Classifier.find c ~priority:0 Scotch_openflow.Of_match.wildcard <> None

let snapshot snap =
  let miss =
    List.concat_map
      (fun dpid ->
        match S.node snap dpid with
        | None ->
          [ D.make ~dpid ~severity:D.Error ~invariant:D.Coverage
              "controlled switch is missing from the topology" ]
        | Some n ->
          if has_miss_rule n then []
          else
            [ D.make ~dpid ~table_id:0 ~severity:D.Error ~invariant:D.Coverage
                "controlled switch has no table-miss rule: unmatched packets vanish \
                 instead of reaching the controller" ])
      (S.controlled snap)
  in
  let overlay =
    match snap.S.overlay with
    | None -> []
    | Some ov ->
      let alive dpid =
        match List.find_opt (fun (d, _, _) -> d = dpid) ov.S.vswitches with
        | Some (_, a, _) -> a
        | None -> false
      in
      let deliveries_of dpid = Option.value (List.assoc_opt dpid ov.S.deliveries) ~default:[] in
      let mesh_of dpid = Option.value (List.assoc_opt dpid ov.S.mesh) ~default:[] in
      let uplink_sym =
        (* §5.2: redirected Packet-Ins are attributed through the
           tunnel-origin table, so every uplink must be registered in
           it — and its tunnel port must really exist on the device. *)
        List.concat_map
          (fun (phys, ups) ->
            List.concat_map
              (fun (vdpid, tid) ->
                let origin =
                  match List.assoc_opt tid ov.S.tunnel_origins with
                  | Some d when d = phys -> []
                  | Some d ->
                    [ D.make ~dpid:phys ~severity:D.Error ~invariant:D.Coverage
                        (Printf.sprintf
                           "uplink tunnel %d is attributed to switch %d in the origin map" tid d) ]
                  | None ->
                    [ D.make ~dpid:phys ~severity:D.Error ~invariant:D.Coverage
                        (Printf.sprintf
                           "uplink tunnel %d to vswitch %d is missing from the origin map: \
                            redirected Packet-Ins cannot be attributed" tid vdpid) ]
                in
                let port =
                  match S.node snap phys with
                  | None -> []
                  | Some n -> (
                    match S.find_port n (Scotch_topo.Topology.tunnel_port_of_id tid) with
                    | Some { S.endpoint = S.To_switch { peer; _ }; _ } when peer = vdpid -> []
                    | _ ->
                      [ D.make ~dpid:phys ~severity:D.Error ~invariant:D.Coverage
                          (Printf.sprintf
                             "uplink tunnel %d to vswitch %d has no matching tunnel port on \
                              the device" tid vdpid) ])
                in
                origin @ port)
              ups)
          ov.S.uplinks
      in
      let cover_diags =
        List.concat_map
          (fun (ip, recorded) ->
            let ip_s = Ipv4_addr.to_string (Ipv4_addr.of_int ip) in
            let effective =
              if alive recorded then Some recorded
              else
                List.find_map
                  (fun (d, a, _) ->
                    if a && List.mem_assoc ip (deliveries_of d) then Some d else None)
                  ov.S.vswitches
            in
            match effective with
            | None ->
              [ D.make ~dpid:recorded ~severity:D.Error ~invariant:D.Coverage
                  (Printf.sprintf "host %s has no alive covering vswitch" ip_s) ]
            | Some c ->
              let fallback =
                if c <> recorded then
                  [ D.make ~dpid:recorded ~severity:D.Warning ~invariant:D.Coverage
                      (Printf.sprintf
                         "recorded cover of host %s is dead; falling back to vswitch %d" ip_s c) ]
                else []
              in
              let delivery =
                if List.mem_assoc ip (deliveries_of c) then []
                else
                  [ D.make ~dpid:c ~severity:D.Error ~invariant:D.Coverage
                      (Printf.sprintf "covering vswitch has no delivery tunnel to host %s" ip_s) ]
              in
              (* return-path symmetry: any entry vswitch must reach the
                 cover over the mesh, so a flow redirected anywhere can
                 still be delivered (§4.1) *)
              let reach =
                List.concat_map
                  (fun (v, a, backup) ->
                    if (not a) || backup || v = c then []
                    else if List.mem_assoc c (mesh_of v) then []
                    else
                      [ D.make ~dpid:v ~severity:D.Error ~invariant:D.Coverage
                          (Printf.sprintf
                             "entry vswitch %d has no mesh tunnel to vswitch %d covering host \
                              %s: no return path" v c ip_s) ])
                  ov.S.vswitches
              in
              fallback @ delivery @ reach)
          ov.S.covers
      in
      uplink_sym @ cover_diags
  in
  miss @ overlay
