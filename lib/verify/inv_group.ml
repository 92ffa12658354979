(** Invariant: group sanity.  Select groups are non-empty, and every
    bucket output lands on a live endpoint — dead
    bucket targets are errors, because groups never expire and only a
    failover rebalance can fix them (§5.1, §5.6). *)

open Scotch_openflow
module D = Diagnostic
module S = Snapshot

let name = "group-sanity"

(** All group findings local to one (non-failed) node. *)
let node snap (n : S.node) =
  List.concat_map
    (fun (g : Scotch_switch.Group_table.group) ->
      if g.buckets = [] then
        [ D.make ~dpid:n.S.dpid ~invariant:D.Group_sanity ~severity:D.Error
            (Printf.sprintf "group %d has an empty bucket list" g.group_id) ]
      else
        List.concat_map
          (fun (b : Of_msg.Group_mod.bucket) ->
            List.concat_map
              (function
                | Of_action.Output (Of_types.Port_no.Physical p) ->
                  Inv_common.check_output snap n ~invariant:D.Group_sanity
                    ~dead_severity:D.Error ~rule:(D.Group g.group_id) p
                | _ -> [])
              b.Of_msg.Group_mod.actions)
          g.buckets)
    n.S.groups

let snapshot snap =
  List.concat_map (fun (n : S.node) -> if n.S.failed then [] else node snap n) snap.S.nodes
