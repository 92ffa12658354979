(** OpenFlow group table of {e select} groups, the only group type
    Scotch uses: they load-balance new flows across vswitch tunnels
    (§5.1), one action bucket per tunnel, bucket chosen by a hash of the
    flow id — "using a hash function based on the flow id may be a
    likely choice for many vendors" — so all packets of a flow take the
    same tunnel. *)

open Scotch_openflow

type group = Of_msg.Stats.group_desc = {
  group_id : Of_types.group_id;
  buckets : Of_msg.Group_mod.bucket list;
}

(* Each group is stored as the option {!find} returns, built once when
   the group is written, so a lookup allocates nothing. *)
type t = { groups : (Of_types.group_id, group option) Hashtbl.t }

let create () = { groups = Hashtbl.create 16 }

let store t (gm : Of_msg.Group_mod.t) =
  Hashtbl.replace t.groups gm.group_id (Some { group_id = gm.group_id; buckets = gm.buckets })

(** [Add]/[Modify] validation: a group with no buckets would silently
    blackhole every flow hashed onto it — real switches reject such
    Group_mods with OFPGMFC_INVALID_GROUP, and so do we. *)
let validate_buckets (gm : Of_msg.Group_mod.t) =
  if gm.buckets = [] then Error `Empty_buckets else Ok ()

let apply t (gm : Of_msg.Group_mod.t) =
  match gm.command with
  | Add -> (
    match validate_buckets gm with
    | Error _ as e -> e
    | Ok () ->
      if Hashtbl.mem t.groups gm.group_id then Error `Group_exists
      else begin
        store t gm;
        Ok ()
      end)
  | Modify -> (
    (* existence first, as switches do: modifying an unknown group is
       Unknown_group even when the buckets are also bad *)
    if not (Hashtbl.mem t.groups gm.group_id) then Error `Unknown_group
    else
      match validate_buckets gm with
      | Error _ as e -> e
      | Ok () ->
        store t gm;
        Ok ())
  | Delete ->
    Hashtbl.remove t.groups gm.group_id;
    Ok ()

let find t gid = match Hashtbl.find t.groups gid with g -> g | exception Not_found -> None

(** [select g ~flow_hash] hashes the flow onto one of the equal
    buckets; [apply] keeps every group non-empty. *)
let select g ~flow_hash = List.nth g.buckets (flow_hash mod List.length g.buckets)

let size t = Hashtbl.length t.groups

let groups t =
  Hashtbl.fold (fun _ g acc -> match g with Some g -> g :: acc | None -> acc) t.groups []
  |> List.sort (fun a b -> compare a.group_id b.group_id)
