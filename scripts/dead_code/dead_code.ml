(* Dead-code gate.  Run from a dune build context after `dune build
   @check`, which leaves a typed tree (.cmt, .cmti) for every module:

     dune build @check scripts/dead_code/dead_code.exe
     (cd _build/default && ./scripts/dead_code/dead_code.exe)

   It walks the typed trees under lib, bin, bench, test and examples
   below the current directory and checks three rules on the code
   declared under lib.  A use is what the compiler resolved a name to
   (aliases, opens and includes already followed), never a match on
   text.

   Exports.  Every `val` of a lib .mli, in its submodules and functor
   results too but not inside a `module type`, must be used by another
   unit: some identifier there resolves to that declaration.  A module
   passed whole, as a functor argument, a `(module M)` pack or an
   `include M`, uses every value it exports.  In a lib unit with no
   .mli, every top-level `let`-bound name must be referenced somewhere,
   its own unit included.  Such a value is dead, or private to its
   module.

   Fields.  Every field of a record type declared under lib (inline
   records of constructors too) must be read somewhere.  A read is

     - a field access `e.f`, unless it is on the right-hand side of an
       assignment to that same field: `c.n <- c.n + 1` only writes n;
     - a record pattern that names the field, `{ f; _ }` or `{ f = p }`.

   Building a record, `{ f = v }`, and copying one, `{ r with g = v }`,
   read nothing.  The .ml and .mli declarations of one field, and the
   fields of a manifest re-export (`type t = M.t = { ... }`) and of the
   type it re-exports, are one field: a read of any of them reads all.
   Polymorphic `compare`, `=` and `Hashtbl.hash` read every field but
   are not seen here.  Such a field is state that is written and never
   used.

   Optional arguments.  Every optional parameter `?x` of a top-level
   lib value, exported or not, must be passed by some application
   outside test: `~x:v`, `?x:v`, or forwarded as `?x`.  The `None` the
   compiler fills in for an omitted argument passes nothing.  A value
   used other than as the head of an application, or in a partial one
   (stored in a record, passed as an argument, applied to some labels
   only), counts as passing all of its options.  Code under test passes
   none: an option no caller passes is a constant, and one that only
   tests pass is a second path the program never takes.

   Each finding is one line, sorted: `path: val v`, `path: type.field`
   or `path: v ?x`, where path is the .mli declaration when there is
   one (`Sub.v`, `Sub.type.field` inside a submodule,
   `type.Constructor.field` in an inline record).  The exit code is 1
   when there is a finding, and 2 when there is no typed tree under lib
   (run from the wrong directory). *)

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

(* A declaration's key names it by compilation unit, module path and
   name (for a field: type, constructor of an inline record, field):
   the .ml and .mli declarations of one value or field share it. *)
let key unit names = unit ^ ":" ^ String.concat "." names

(* Union-find over field keys. *)
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

(* Records key -> (declaring file, printed name), keeping the .mli. *)
let place tbl k (loc : Location.t) name =
  match Hashtbl.find_opt tbl k with
  | Some (f, _) when Filename.check_suffix f ".mli" -> ()
  | _ -> Hashtbl.replace tbl k (loc.loc_start.pos_fname, name)

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

(* Declaration location -> key, for the values of lib. *)
let values : (string * int, string) Hashtbl.t = Hashtbl.create 1024

(* key -> (declaring file, printed name), for the values of lib. *)
let value_places : (string, string * string) Hashtbl.t = Hashtbl.create 1024

(* The declarations that must be used: location -> (key, finding). *)
let exports : (string * int, string * string) Hashtbl.t = Hashtbl.create 1024

(* key -> optional labels, for top-level values of lib. *)
let optionals : (string, string list) Hashtbl.t = Hashtbl.create 256

(* Locations some identifier resolves to. *)
let used : (string * int, unit) Hashtbl.t = Hashtbl.create 4096

(* (location, Some label) when an application outside test passes that
   option; (location, None) when such a use may pass any of them. *)
let passes : ((string * int) * string option, unit) Hashtbl.t = Hashtbl.create 4096

(* Modules passed whole: (unit, module path, the module's path). *)
let wholes = ref []

let rec labels ty =
  match Types.get_desc ty with
  | Tarrow (Optional l, _, res, _) -> l :: labels res
  | Tarrow (_, _, res, _) -> labels res
  | Tpoly (ty, _) -> labels ty
  | _ -> []

let scan ~lib ~test ~has_mli ~unit annots =
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
    if lib then place in_lib k ld.ld_loc (String.concat "." names)
  in
  let value ~export ty names (loc : Location.t) =
    let k = key unit names and name = String.concat "." names in
    Hashtbl.replace values (loc_id loc) k;
    place value_places k loc name;
    if export then
      Hashtbl.replace exports (loc_id loc) (k, loc.loc_start.pos_fname ^ ": val " ^ name);
    match labels ty with [] -> () | ls -> Hashtbl.replace optionals k ls
  in
  (* the values a signature exports, and the top-level values of a
     structure, outside functor parameters and module types *)
  let rec signature path sg =
    List.iter
      (fun item ->
        match item.sig_desc with
        | Tsig_value vd ->
          value ~export:true vd.val_val.val_type (path @ [ vd.val_name.txt ]) vd.val_loc
        | Tsig_module { md_name = { txt = Some n; _ }; md_type; _ } ->
          module_type (path @ [ n ]) md_type
        | _ -> ())
      sg.sig_items
  and module_type path mty =
    match mty.mty_desc with
    | Tmty_signature sg -> signature path sg
    | Tmty_functor (_, res) -> module_type path res
    | _ -> ()
  in
  let rec structure path str =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match vb.vb_pat.pat_desc with
              (* [let v : t = e] binds an alias of [_] *)
              | Tpat_var (_, s) | Tpat_alias ({ pat_desc = Tpat_any; _ }, _, s) ->
                value ~export:(not has_mli) vb.vb_pat.pat_type (path @ [ s.txt ]) s.loc
              | _ -> ())
            vbs
        | Tstr_module { mb_name = { txt = Some n; _ }; mb_expr; _ } ->
          module_expr (path @ [ n ]) mb_expr
        | _ -> ())
      str.str_items
  and module_expr path me =
    match me.mod_desc with
    | Tmod_structure str -> structure path str
    | Tmod_constraint (me, _, _, _) -> module_expr path me
    | _ -> ()
  in
  let rec whole me =
    match me.mod_desc with
    | Tmod_ident (p, _) ->
      wholes := (unit, !modpath, String.split_on_char '.' (Path.name p)) :: !wholes
    | Tmod_constraint (me, _, _, _) -> whole me
    | _ -> ()
  in
  let pass p = if not test then Hashtbl.replace passes p () in
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
    | Texp_ident (_, _, vd) ->
      Hashtbl.replace used (loc_id vd.val_loc) ();
      pass (loc_id vd.val_loc, None)
    | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, args) ->
      let id = loc_id vd.val_loc in
      Hashtbl.replace used id ();
      (* a partial application leaves options to whoever applies the rest *)
      if labels e.exp_type <> [] then pass (id, None);
      List.iter
        (function
          (* an omitted option: the compiler's ghost [None] *)
          | ( Asttypes.Optional _,
              Some { exp_desc = Texp_construct (_, { cstr_name = "None"; _ }, []); exp_loc; _ } )
            when exp_loc.loc_ghost -> ()
          | Optional l, Some _ -> pass (id, Some l)
          | _ -> ())
        args;
      List.iter (fun (_, a) -> Option.iter (sub.expr sub) a) args
    | Texp_pack me ->
      whole me;
      default_iterator.expr sub e
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
  let module_expr sub me =
    (match me.mod_desc with Tmod_apply (_, arg, _) -> whole arg | _ -> ());
    default_iterator.module_expr sub me
  in
  let structure_item sub si =
    (match si.str_desc with Tstr_include incl -> whole incl.incl_mod | _ -> ());
    default_iterator.structure_item sub si
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
      module_expr;
      structure_item;
      module_binding;
      module_declaration;
      module_type_declaration;
    }
  in
  match annots with
  | Cmt_format.Implementation str ->
    if lib then structure [] str;
    it.structure it str
  | Cmt_format.Interface sg ->
    if lib then signature [] sg;
    it.signature it sg
  | _ -> ()

(* The unit and module path a module path names.  Inside a dune
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
      "dead_code: no .cmt/.cmti under ./lib: run from _build/default after dune build @check";
    exit 2
  end;
  let units = Hashtbl.create 256 in
  List.iter
    (fun (root, files) ->
      List.iter
        (fun file ->
          let cmt = Cmt_format.read_cmt file in
          Hashtbl.replace units cmt.cmt_modname ();
          scan ~lib:(root = "lib") ~test:(root = "test") ~has_mli:(Sys.file_exists (file ^ "i")) ~unit:cmt.cmt_modname
            cmt.cmt_annots)
        files)
    trees;
  (* Fields. *)
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
  let fields =
    Hashtbl.fold
      (fun k (file, name) acc ->
        if Hashtbl.mem read_roots (find k) then acc else (file ^ ": " ^ name) :: acc)
      in_lib []
  in
  (* Exports. *)
  let prefixes =
    List.map
      (fun (unit, modpath, comps) ->
        let u, names = resolve units unit modpath comps in
        if names = [] then key u [] else key u names ^ ".")
      !wholes
  in
  let exported =
    Hashtbl.fold
      (fun loc (k, finding) acc ->
        if Hashtbl.mem used loc
           || List.exists (fun prefix -> String.starts_with ~prefix k) prefixes
        then acc
        else finding :: acc)
      exports []
  in
  (* Optional arguments, by key: passing to the .mli declaration passes
     to the .ml one. *)
  let passed = Hashtbl.create 1024 in
  Hashtbl.iter
    (fun (loc, l) () ->
      Option.iter (fun k -> Hashtbl.replace passed (k, l) ()) (Hashtbl.find_opt values loc))
    passes;
  let options =
    Hashtbl.fold
      (fun k ls acc ->
        let file, name = Hashtbl.find value_places k in
        List.filter_map
          (fun l ->
            if Hashtbl.mem passed (k, None) || Hashtbl.mem passed (k, Some l) then None
            else Some (Printf.sprintf "%s: %s ?%s" file name l))
          ls
        @ acc)
      optionals []
  in
  let dead = List.sort_uniq compare (fields @ exported @ options) in
  List.iter print_endline dead;
  exit (if dead = [] then 0 else 1)
