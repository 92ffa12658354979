(* Dead-field gate.  Run from a dune build context after `dune build
   @check`, which leaves a typed tree (.cmt, .cmti) for every module:

     dune build @check scripts/dead_fields/dead_fields.exe
     (cd _build/default && ./scripts/dead_fields/dead_fields.exe)

   It walks the typed trees under lib, bin, bench, test and examples
   below the current directory.  Every field of a record type whose
   declaration sits in a typed tree under lib (inline records of
   constructors too) must be read somewhere.  A read is

     - a field access `e.f`, unless it is on the right-hand side of an
       assignment to that same field: `c.n <- c.n + 1` only writes n;
     - a record pattern that names the field, `{ f; _ }` or `{ f = p }`.

   Building a record, `{ f = v }`, and copying one, `{ r with g = v }`,
   read nothing.  A field is identified by the location of its
   declaration.  The .ml and .mli declarations of one field, and the
   fields of a manifest re-export (`type t = M.t = { ... }`) and of the
   type it re-exports, are one field: a read of any of them reads all.
   Polymorphic `compare`, `=` and `Hashtbl.hash` read every field but
   are not seen here.

   Each unread field is printed as `path: type.field` (its .mli
   declaration when there is one; `Sub.type.field` inside a submodule,
   `type.Constructor.field` in an inline record) and the exit code is 1
   when there is one.  Such a field is state that is written and never used.  With no
   typed tree under lib (run from the wrong directory) it exits 2. *)

open Typedtree

let roots = [ "lib"; "bin"; "bench"; "test"; "examples" ]

let rec typed_trees dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.sort compare names;
    Array.to_list names
    |> List.concat_map (fun name ->
           let path = Filename.concat dir name in
           if Sys.is_directory path then typed_trees path
           else if Filename.check_suffix name ".cmt" || Filename.check_suffix name ".cmti"
           then [ path ]
           else [])

(* A field's key names it by compilation unit, module path, type,
   constructor (for an inline record) and field: the .ml and .mli
   declarations of one field share it. *)
let key unit names = unit ^ ":" ^ String.concat "." names

(* Union-find over keys. *)
let parent : (string, string) Hashtbl.t = Hashtbl.create 1024

let rec find k =
  match Hashtbl.find_opt parent k with
  | None -> k
  | Some p ->
    let r = find p in
    if r <> p then Hashtbl.replace parent k r;
    r

let union a b =
  let ra = find a and rb = find b in
  if ra <> rb then Hashtbl.replace parent ra rb

let loc_id (loc : Location.t) = (loc.loc_start.pos_fname, loc.loc_start.pos_cnum)

(* Declaration location -> key, for every record field seen. *)
let declared : (string * int, string) Hashtbl.t = Hashtbl.create 1024

(* key -> (declaring file, printed name), for fields declared under lib. *)
let in_lib : (string, string * string) Hashtbl.t = Hashtbl.create 1024

(* Locations of the declarations that some code reads. *)
let reads : (string * int, unit) Hashtbl.t = Hashtbl.create 1024

(* Manifest re-exports, one per field: (the field's key, its unit, its
   module path, the manifest's path, the names below the type), resolved
   once every unit name is known. *)
let manifests = ref []

let scan ~lib ~unit annots =
  let modpath = ref [] in
  let within name f =
    match name with
    | None -> f ()
    | Some n ->
      let saved = !modpath in
      modpath := saved @ [ n ];
      Fun.protect ~finally:(fun () -> modpath := saved) f
  in
  (* the fields whose assignment's right-hand side is being walked *)
  let assigned = ref [] in
  let read (lbl : Types.label_description) =
    let id = loc_id lbl.lbl_loc in
    if not (List.mem id !assigned) then Hashtbl.replace reads id ()
  in
  let declare names (ld : label_declaration) =
    let names = !modpath @ names @ [ ld.ld_name.txt ] in
    let k = key unit names in
    Hashtbl.replace declared (loc_id ld.ld_loc) k;
    let file = ld.ld_loc.loc_start.pos_fname in
    if lib then
      match Hashtbl.find_opt in_lib k with
      | Some (f, _) when Filename.check_suffix f ".mli" -> ()
      | _ -> Hashtbl.replace in_lib k (file, String.concat "." names)
  in
  let open Tast_iterator in
  let type_declaration sub td =
    let tname = td.typ_name.txt in
    let fields =
      match td.typ_kind with
      | Ttype_record lds -> List.map (fun ld -> ([], ld)) lds
      | Ttype_variant cds ->
        List.concat_map
          (fun cd ->
            match cd.cd_args with
            | Cstr_record lds -> List.map (fun ld -> ([ cd.cd_name.txt ], ld)) lds
            | Cstr_tuple _ -> [])
          cds
      | Ttype_abstract | Ttype_open -> []
    in
    List.iter (fun (c, ld) -> declare (tname :: c) ld) fields;
    (match td.typ_type.type_manifest with
     | Some ty when fields <> [] -> (
       match Types.get_desc ty with
       | Tconstr (p, _, _) ->
         List.iter
           (fun (c, ld) ->
             manifests :=
               ( key unit (!modpath @ (tname :: c) @ [ ld.ld_name.txt ]),
                 unit,
                 !modpath,
                 String.split_on_char '.' (Path.name p),
                 c @ [ ld.ld_name.txt ] )
               :: !manifests)
           fields
       | _ -> ())
     | _ -> ());
    default_iterator.type_declaration sub td
  in
  let expr sub e =
    match e.exp_desc with
    | Texp_field (_, _, lbl) ->
      read lbl;
      default_iterator.expr sub e
    | Texp_setfield (obj, _, lbl, rhs) ->
      sub.expr sub obj;
      let saved = !assigned in
      assigned := loc_id lbl.lbl_loc :: saved;
      sub.expr sub rhs;
      assigned := saved
    | _ -> default_iterator.expr sub e
  in
  let pat (type k) sub (p : k general_pattern) =
    (match p.pat_desc with
     | Tpat_record (fields, _) -> List.iter (fun (_, lbl, _) -> read lbl) fields
     | _ -> ());
    default_iterator.pat sub p
  in
  let module_binding sub mb =
    within mb.mb_name.txt (fun () -> default_iterator.module_binding sub mb)
  in
  let module_declaration sub md =
    within md.md_name.txt (fun () -> default_iterator.module_declaration sub md)
  in
  let module_type_declaration sub mtd =
    within (Some mtd.mtd_name.txt) (fun () ->
        default_iterator.module_type_declaration sub mtd)
  in
  let it =
    {
      default_iterator with
      type_declaration;
      expr;
      pat;
      module_binding;
      module_declaration;
      module_type_declaration;
    }
  in
  match annots with
  | Cmt_format.Implementation str -> it.structure it str
  | Cmt_format.Interface sg -> it.signature it sg
  | _ -> ()

(* The unit and module path a manifest path names.  Inside a dune
   library `M.t` reads as `Lib__.M.t`; from outside, `Lib.M.t`; both
   are unit `Lib__M`.  A path that names no unit is local. *)
let resolve units unit modpath comps =
  match comps with
  | a :: b :: rest when String.ends_with ~suffix:"__" a -> (a ^ b, rest)
  | a :: b :: rest when Hashtbl.mem units (a ^ "__" ^ b) -> (a ^ "__" ^ b, rest)
  | a :: rest when Hashtbl.mem units a -> (a, rest)
  | _ -> (unit, modpath @ comps)

let () =
  let trees = List.map (fun root -> (root, typed_trees root)) roots in
  if List.assoc "lib" trees = [] then begin
    prerr_endline
      "dead_fields: no .cmt/.cmti under ./lib: run from _build/default after dune build @check";
    exit 2
  end;
  let units = Hashtbl.create 256 in
  List.iter
    (fun (root, files) ->
      List.iter
        (fun file ->
          let cmt = Cmt_format.read_cmt file in
          Hashtbl.replace units cmt.cmt_modname ();
          scan ~lib:(root = "lib") ~unit:cmt.cmt_modname cmt.cmt_annots)
        files)
    trees;
  List.iter
    (fun (k, unit, modpath, comps, below) ->
      let u, names = resolve units unit modpath comps in
      union k (key u (names @ below)))
    !manifests;
  let read_roots = Hashtbl.create 1024 in
  Hashtbl.iter
    (fun loc () ->
      match Hashtbl.find_opt declared loc with
      | Some k -> Hashtbl.replace read_roots (find k) ()
      | None -> ())
    reads;
  let dead =
    Hashtbl.fold
      (fun k (file, name) acc ->
        if Hashtbl.mem read_roots (find k) then acc else (file ^ ": " ^ name) :: acc)
      in_lib []
    |> List.sort_uniq compare
  in
  List.iter print_endline dead;
  exit (if dead = [] then 0 else 1)
