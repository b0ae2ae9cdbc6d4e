(** The shared typed layer of dynlint: one [.cmt] load for every typed
    pass (D1, D7, D11, D13), a per-unit index built once at load, and
    the one place that knows how a name in a [.cmt] resolves to a
    (unit, value).

    The driver reads each cmt exactly once and hands the same
    {!unit_info} list to every pass; the per-pass wall-time report in
    dynlint's summary line keeps the sharing honest.

    Path matching is by suffix on the normalized component list: a
    [Path.t] is flattened to its dotted components and every component is
    further split on ["__"], so [Pool.map], [Util.Pool.map] and the
    wrapped-library spelling [Mylib__Pool.map] all end in
    [["Pool"; "map"]]. This keeps the rules working across wrapped and
    unwrapped libraries and across local module aliases. *)

type decl = {
  d_name : string option;
      (** the bound name; [None] when the pattern is not a variable *)
  d_attrs : Parsetree.attributes;
  d_expr : Typedtree.expression option;  (** [None] for an external *)
  d_loc : Location.t;  (** the pattern's (or the external's) location *)
  d_top : bool;
      (** bound by a structure item (module level, nested modules
          included) rather than by an expression-level [let] *)
}
(** One value binding or external of a unit, as the annotation-driven
    rules (D11 summaries, D13 universes) read it. *)

type unit_info = {
  ui_name : string;
      (** unwrapped compilation unit name: ["Mylib__Net"] loads as ["Net"],
          matching how call sites spell cross-module references after path
          normalization *)
  ui_source : string;  (** workspace-relative source path from the cmt *)
  ui_str : Typedtree.structure;
  ui_binds : (string, Typedtree.expression) Hashtbl.t;
      (** every let-bound variable of the unit, module- or
          expression-level, keyed by [Ident.unique_name] (stamps make
          shadowing unambiguous) *)
  ui_decls : decl list;  (** every value binding and external, in walk order *)
}

val collect_cmt_files : string list -> string list
(** Walk the given directories (including hidden ones — cmts live under
    [.objs]) and return every [*.cmt] path in sorted order. A path that is
    itself a [.cmt] file is returned as-is; unreadable directories are
    skipped. *)

val load_files : string list -> unit_info list
(** Read and index the given [.cmt] files. Units are deduplicated by
    source file; interfaces, packed modules and generated units are
    skipped.
    @raise Failure naming the first cmt that cannot be read. *)

val load_dirs : string list -> unit_info list
(** {!collect_cmt_files} composed with {!load_files}. *)

(** {2 Name resolution} *)

val norm_path : Path.t -> string list
(** Dotted components, each split on ["__"]. *)

val drop_stdlib : string list -> string list
(** Drop a leading [Stdlib] component, so [Stdlib.ref] and [ref] agree;
    the parsetree pass normalizes its identifiers with it too. *)

val head : Path.t -> string list
(** {!norm_path} through {!drop_stdlib}. *)

val callee : Typedtree.expression -> string list option
(** The {!head} of an identifier expression. *)

val type_head : Types.type_expr -> string list option
(** The {!head} of a type constructor. *)

val ends_with : suffix:string list -> string list -> bool

val qualify : unit_name:string -> string list -> (string * string) option
(** The (unit, name) key of a head: its last two components, or
    [unit_name] and the name for an unqualified one. Cross-module tables
    (D11's proven values, D13's universe keys) both key by it. *)

val raises : string list -> bool
(** Is the head [invalid_arg], [failwith], [raise], [raise_notrace] or
    [exit]? *)

val is_arrow_ty : Types.type_expr -> bool

val attr : string -> Parsetree.attributes -> Parsetree.attribute option
(** The last attribute with this name. *)

val has_attr : string -> Parsetree.attributes -> bool

val pat_ident : Typedtree.pattern -> Ident.t option
(** The variable a [Tpat_var] or [Tpat_alias] pattern binds. *)

val bound_idents : Typedtree.expression -> (string, unit) Hashtbl.t
(** Every ident bound anywhere inside the expression — function
    parameters, case and let patterns, for-loop indices — by unique
    name. *)

val ident_occurs : string -> Typedtree.expression -> bool
(** Does the ident with this unique name occur in the expression? *)
