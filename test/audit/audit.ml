(* Export audit: every value a [lib/] interface exports needs a caller
   outside its own module and outside the tests, or a line in the
   allowlist that says why it is kept.

   Usage: audit.exe ROOT ALLOWLIST

   ROOT is a dune build directory (e.g. _build/default) after
   [dune build @check], which writes every .cmt/.cmti. Exports are the
   [val]s of the .cmti files under ROOT/lib, keyed lib.Module.value
   (nested modules add their names). Uses are the value identifiers of
   the .cmt files under ROOT/{lib,bin,bench,examples,costbench}
   (callers) and ROOT/test (tests). A path is resolved through local
   [module X = P] bindings and through every [module X = P] a unit
   exports, which covers dune's wrapper modules and re-exports such as
   [module Instrument = Services.Instrument].

   Exit 1, with one line per finding, when an export has no caller and
   no allowlist line, when an allowlist line is stale (names no export,
   or an export that has a caller) or has no known reason, or when no
   test .cmt was found (a plain [dune build] does not write the
   executables' .cmt files, and every test-only export would then read
   as uncalled). Silent on success. *)

open Typedtree

let caller_dirs = [ "lib"; "bin"; "bench"; "examples"; "costbench" ]
let reasons = [ "hook:"; "fixture:"; "artifact:"; "roadmap:" ]

let rec files_under ext dir =
  if not (Sys.file_exists dir) then []
  else if Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f -> files_under ext (Filename.concat dir f))
  else if Filename.check_suffix dir ext then [ dir ]
  else []

(* [_build/default/lib/amac/.amac.objs/byte/x.cmti] -> "amac" *)
let library_of file =
  let objs = Filename.basename (Filename.dirname (Filename.dirname file)) in
  match String.index_opt objs '.' with
  | Some 0 -> (
      let s = String.sub objs 1 (String.length objs - 1) in
      match String.index_opt s '.' with Some i -> String.sub s 0 i | None -> s)
  | _ -> objs

(* Unit-level aliases: "Amac.Topology" -> ["Amac__Topology"]. An alias a
   unit's interface declares wins over its implementation's. *)
let aliases : (string, string list) Hashtbl.t = Hashtbl.create 256
let add_alias ~iface key target =
  if iface || not (Hashtbl.mem aliases key) then
    Hashtbl.replace aliases key target

(* Local module idents of one file -> the path they stand for. *)
let rec names local = function
  | Path.Pident id when Ident.persistent id -> Some [ Ident.name id ]
  | Path.Pident id -> Hashtbl.find_opt local (Ident.unique_name id)
  | Path.Pdot (p, s) -> Option.map (fun l -> l @ [ s ]) (names local p)
  | _ -> None

let alias_target = function
  | Tmod_ident (p, _)
  | Tmod_constraint ({ mod_desc = Tmod_ident (p, _); _ }, _, _, _) ->
      Some p
  | _ -> None

(* Substitute the longest aliased prefix until none applies. *)
let rec resolve fuel l =
  let rec split n = function
    | x :: rest when n > 0 ->
        let a, b = split (n - 1) rest in
        (x :: a, b)
    | rest -> ([], rest)
  in
  let rec try_len n =
    if n < 2 then l
    else
      let prefix, rest = split n l in
      match Hashtbl.find_opt aliases (String.concat "." prefix) with
      | Some target when fuel > 0 -> resolve (fuel - 1) (target @ rest)
      | _ -> try_len (n - 1)
  in
  try_len (List.length l - 1)

type export = { key : string; mutable callers : int; mutable tests : int }

let exports : (string, export) Hashtbl.t = Hashtbl.create 512

let read_interface file =
  let cmt = Cmt_format.read_cmt file in
  let unit = cmt.cmt_modname in
  let lib = library_of file in
  let shown =
    let p = String.capitalize_ascii lib ^ "__" in
    let n = String.length p in
    if String.length unit > n && String.sub unit 0 n = p then
      String.sub unit n (String.length unit - n)
    else unit
  in
  let no_locals = Hashtbl.create 0 in
  let rec sig_items path shown_path items =
    List.iter
      (fun item ->
        match item.sig_desc with
        | Tsig_value vd ->
            let name = String.concat "." (path @ [ vd.val_name.txt ]) in
            Hashtbl.replace exports name
              {
                key =
                  String.concat "."
                    ((lib :: shown_path) @ [ vd.val_name.txt ]);
                callers = 0;
                tests = 0;
              }
        | Tsig_module { md_name = { txt = Some m; _ }; md_type; _ } -> (
            match md_type.mty_desc with
            | Tmty_alias (p, _) ->
                Option.iter
                  (fun t ->
                    add_alias ~iface:true (String.concat "." (path @ [ m ])) t)
                  (names no_locals p)
            | Tmty_signature s ->
                sig_items (path @ [ m ]) (shown_path @ [ m ]) s.sig_items
            | _ -> ())
        | _ -> ())
      items
  in
  match cmt.cmt_annots with
  | Interface s -> sig_items [ unit ] [ shown ] s.sig_items
  | _ -> ()

(* One implementation: its uses, resolved against its own local aliases,
   and (recorded as a side effect) the aliases it exports. *)
let read_implementation file =
  let cmt = Cmt_format.read_cmt file in
  let unit = cmt.cmt_modname in
  let local = Hashtbl.create 16 in
  let uses = ref [] in
  let bind id p =
    Option.iter
      (fun t -> Hashtbl.replace local (Ident.unique_name id) t)
      (names local p)
  in
  let iter =
    {
      Tast_iterator.default_iterator with
      module_binding =
        (fun self mb ->
          (match (mb.mb_id, alias_target mb.mb_expr.mod_desc) with
          | Some id, Some p -> bind id p
          | _ -> ());
          Tast_iterator.default_iterator.module_binding self mb);
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) ->
              Option.iter (fun l -> uses := l :: !uses) (names local p)
          | Texp_letmodule (Some id, _, _, me, _) -> (
              match alias_target me.mod_desc with
              | Some p -> bind id p
              | None -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  let rec top path items =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_module { mb_name = { txt = Some m; _ }; mb_expr; _ } -> (
            match (alias_target mb_expr.mod_desc, mb_expr.mod_desc) with
            | Some p, _ ->
                Option.iter
                  (add_alias ~iface:false (String.concat "." (path @ [ m ])))
                  (names local p)
            | None, Tmod_structure s -> top (path @ [ m ]) s.str_items
            | _ -> ())
        | _ -> ())
      items
  in
  (match cmt.cmt_annots with
  | Implementation s ->
      iter.structure iter s;
      top [ unit ] s.str_items
  | _ -> ());
  (unit, !uses)

let () =
  let root, allowlist =
    match Sys.argv with
    | [| _; root; allowlist |] -> (root, allowlist)
    | _ ->
        prerr_endline "usage: audit.exe ROOT ALLOWLIST";
        exit 2
  in
  let in_root d = Filename.concat root d in
  List.iter read_interface (files_under ".cmti" (in_root "lib"));
  let read dirs =
    List.concat_map (fun d -> files_under ".cmt" (in_root d)) dirs
  in
  let callers = List.map read_implementation (read caller_dirs) in
  let tests = List.map read_implementation (read [ "test" ]) in
  let count bump (unit, uses) =
    List.iter
      (fun l ->
        match resolve 32 l with
        | u :: _ as l when u <> unit -> (
            match Hashtbl.find_opt exports (String.concat "." l) with
            | Some e -> bump e
            | None -> ())
        | _ -> ())
      uses
  in
  List.iter (count (fun e -> e.callers <- e.callers + 1)) callers;
  List.iter (count (fun e -> e.tests <- e.tests + 1)) tests;
  let by_key = Hashtbl.create 512 in
  Hashtbl.iter (fun _ e -> Hashtbl.replace by_key e.key e) exports;
  let findings = ref [] in
  let report fmt =
    Printf.ksprintf (fun s -> findings := s :: !findings) fmt
  in
  if tests = [] then
    report "no test .cmt under %s (build with dune build @check first)"
      (in_root "test");
  let listed = Hashtbl.create 64 in
  In_channel.with_open_text allowlist In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [] | [ "" ] -> ()
         | key :: rest -> (
             Hashtbl.replace listed key ();
             let reason = String.trim (String.concat " " rest) in
             let known r = String.starts_with ~prefix:r reason in
             if not (List.exists known reasons) then
               report "allowlist: %s: reason must start with one of %s" key
                 (String.concat " " reasons);
             match Hashtbl.find_opt by_key key with
             | None -> report "stale allowlist line: %s is not an export" key
             | Some e when e.callers > 0 ->
                 report "stale allowlist line: %s has a caller outside the \
                         tests" key
             | Some _ -> ()));
  let uncalled = ref 0 and test_only = ref 0 in
  Hashtbl.iter
    (fun key e ->
      if e.callers = 0 && not (Hashtbl.mem listed key) then
        if e.tests = 0 then (
          incr uncalled;
          report "%s: no caller" key)
        else (
          incr test_only;
          report "%s: called only by tests" key))
    by_key;
  if !findings <> [] then (
    List.iter print_endline (List.sort compare !findings);
    Printf.printf
      "audit: %d exports, %d unlisted with no caller, %d unlisted called only \
       by tests, %d allowlist lines\n"
      (Hashtbl.length by_key) !uncalled !test_only (Hashtbl.length listed);
    exit 1)
