(* D13 message-flow: the cross-module send/receive graph.

   The protocol's tag vocabulary is a variant whose renderer carries
   [@@dynlint.tag_universe] (Dist.suffix_to_string). Every constructor of
   such a universe must have at least one [Net.send_to]/[Net.send_up]
   site whose [~tag] argument statically mentions it, and at least one of
   those sites must install a real delivery continuation. A constructor
   with no send site is an orphan protocol arm — declared, rendered,
   counted in bit budgets, but unreachable by any execution. A constructor
   whose every send drops its continuation ([ignore]) can be emitted but
   never observed. Both are protocol holes no runtime test walks, so they
   are findings.

   The same reconstruction is exported as an artifact: [dynlint --graph
   FILE.dot|FILE.json] renders senders -> tag constructors -> receivers,
   the paper's (M,W)-controller message diagram recovered from the code
   itself. The JSON form (Telemetry.Json) is there for other tooling to
   consume.

   Resolution is syntactic over the typedtree: the first constructor of a
   universe type occurring inside the [~tag] argument names the edge; the
   last unlabelled arrow-typed argument is the receiver (a record field
   access names the continuation slot, [ignore] means dropped). A send
   whose tag carries no universe constructor — a string literal included —
   resolves to nothing and is flagged, and so is a [@@dynlint.tag_universe]
   binding that is not a variant renderer: a tag the graph cannot name is
   a tag no rule checks. *)

open Typedtree

(* ---------- the public graph ---------- *)

type arm = {
  a_ctor : string;
  a_wire : string option;  (* the renderer's string for this arm *)
  a_loc : Location.t;
}

type universe = {
  u_key : string;  (* "Dist.suffix": owning unit + type name *)
  u_unit : string;
  u_loc : Location.t;
  u_arms : arm list;
}

type edge = {
  e_universe : string;
  e_ctor : string;
  e_sender : string;  (* "Unit.innermost-enclosing-binding" *)
  e_receiver : string option;  (* None: the continuation is dropped *)
  e_loc : Location.t;
}

type graph = { g_universes : universe list; g_edges : edge list }

(* ---------- universe harvesting ---------- *)

(* "Dist.suffix" from a constructor's result type: a [Pident] names a type
   of the current unit, a [Pdot] keeps its last two components. *)
let type_key ~unit_name ty =
  Option.map
    (fun (m, ty_name) -> m ^ "." ^ ty_name)
    (Option.bind (Cmt_load.type_head ty) (Cmt_load.qualify ~unit_name))

let rec ctors_of_pat : type k. k general_pattern -> (Types.constructor_description * Location.t) list =
 fun p ->
  match p.pat_desc with
  | Tpat_construct (_, cd, _, _) -> [ (cd, p.pat_loc) ]
  | Tpat_value v -> ctors_of_pat (v :> value general_pattern)
  | Tpat_alias (q, _, _) -> ctors_of_pat q
  | Tpat_or (a, b, _) -> ctors_of_pat a @ ctors_of_pat b
  | _ -> []

let first_string e =
  let found = ref None in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_constant (Asttypes.Const_string (s, _, _)) when !found = None ->
              found := Some s
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e;
  !found

(* The arms of a variant renderer: a multi-case [function], or parameters
   followed by a [match] on the last one. *)
let rec renderer_arms e =
  let arms cases =
    List.concat_map
      (fun c -> List.map (fun cl -> (cl, first_string c.c_rhs)) (ctors_of_pat c.c_lhs))
      cases
  in
  match e.exp_desc with
  | Texp_function { cases = [ { c_lhs; c_guard = None; c_rhs; _ } ]; _ } -> (
      match (c_lhs.pat_desc, c_rhs.exp_desc) with
      | (Tpat_var _ | Tpat_alias _ | Tpat_any), Texp_match (_, cases, _) -> arms cases
      | _ -> renderer_arms c_rhs)
  | Texp_function { cases; _ } -> arms cases
  | _ -> []

let harvest_universes ~emitter (units : Cmt_load.unit_info list) =
  List.concat_map
    (fun (u : Cmt_load.unit_info) ->
      List.filter_map
        (fun (d : Cmt_load.decl) ->
          match d.d_expr with
          | Some e when d.d_top && Cmt_load.has_attr "dynlint.tag_universe" d.d_attrs -> (
              match renderer_arms e with
              | [] ->
                  Lint.emit emitter Lint.Message_flow d.d_loc
                    (Printf.sprintf
                       "tag universe %s is not a variant renderer (a function from constructors to wire strings): the protocol graph cannot name its tags"
                       (Option.value d.d_name ~default:"_"));
                  None
              | ((cd0, _), _) :: _ as arms ->
                  Option.map
                    (fun key ->
                      {
                        u_key = key;
                        u_unit = u.ui_name;
                        u_loc = d.d_loc;
                        u_arms =
                          List.map
                            (fun ((cd, loc), wire) ->
                              { a_ctor = cd.Types.cstr_name; a_wire = wire; a_loc = loc })
                            arms;
                      })
                    (type_key ~unit_name:u.ui_name cd0.Types.cstr_res))
          | _ -> None)
        u.ui_decls)
    units

(* ---------- send-site collection ---------- *)

let is_send_head comps =
  match List.rev comps with
  | f :: m :: _ -> m = "Net" && List.mem f [ "send_to"; "send_up" ]
  | _ -> false

(* The first constructor of a declared universe type inside the [~tag]
   argument names the tag this send carries. *)
let resolve_tag ~unit_name ~keys e =
  let found = ref None in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_construct (_, cd, _) when !found = None -> (
              match type_key ~unit_name cd.Types.cstr_res with
              | Some key when List.mem key keys ->
                  found := Some (key, cd.Types.cstr_name)
              | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e;
  !found

let receiver_of e =
  match e.exp_desc with
  | Texp_field (_, _, ld) -> Some ld.lbl_name
  | Texp_ident (p, _, _) -> (
      match List.rev (Cmt_load.head p) with
      | f :: _
        when f = "ignore"
             || (String.length f > 7 && String.sub f 0 7 = "ignore_") ->
          None
      | f :: _ -> Some f
      | [] -> Some "<expr>")
  | Texp_function _ -> Some "<fun>"
  | _ -> Some "<expr>"

let collect_sends ~keys (u : Cmt_load.unit_info) =
  let edges = ref [] and unresolved = ref [] in
  let current = ref u.ui_name in
  let it =
    {
      Tast_iterator.default_iterator with
      value_binding =
        (fun self vb ->
          match Cmt_load.pat_ident vb.vb_pat with
          | Some id ->
              let saved = !current in
              current := u.ui_name ^ "." ^ Ident.name id;
              Tast_iterator.default_iterator.value_binding self vb;
              current := saved
          | None -> Tast_iterator.default_iterator.value_binding self vb);
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
            when is_send_head (Cmt_load.head p) -> (
              let tag_arg =
                List.find_map
                  (function
                    | Asttypes.Labelled "tag", Some a -> Some a | _ -> None)
                  args
              in
              let receiver =
                List.fold_left
                  (fun acc -> function
                    | Asttypes.Nolabel, Some a when Cmt_load.is_arrow_ty a.exp_type ->
                        Some a
                    | _ -> acc)
                  None args
              in
              match tag_arg with
              | None -> ()
              | Some ta -> (
                  match resolve_tag ~unit_name:u.ui_name ~keys ta with
                  | Some (key, ctor) ->
                      edges :=
                        {
                          e_universe = key;
                          e_ctor = ctor;
                          e_sender = !current;
                          e_receiver = Option.bind receiver receiver_of;
                          e_loc = e.exp_loc;
                        }
                        :: !edges
                  | None -> unresolved := e.exp_loc :: !unresolved))
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it u.ui_str;
  (List.rev !edges, List.rev !unresolved)

(* ---------- build + findings ---------- *)

let lint_units ~emitter units =
  let univs = harvest_universes ~emitter units in
  let keys = List.map (fun u -> u.u_key) univs in
  let sends = List.map (collect_sends ~keys) units in
  let edges = List.concat_map fst sends in
  List.iter
    (fun u ->
      List.iter
        (fun a ->
          let arm_edges =
            List.filter
              (fun e -> e.e_universe = u.u_key && e.e_ctor = a.a_ctor)
              edges
          in
          match arm_edges with
          | [] ->
              Lint.emit
                ~related:
                  [ Lint.related_of_loc ~msg:"tag universe declared here" u.u_loc ]
                emitter Lint.Message_flow a.a_loc
                (Printf.sprintf
                   "constructor %s of tag universe %s has no Net.send_to/Net.send_up site: an orphan protocol arm no execution reaches"
                   a.a_ctor u.u_key)
          | first :: _ ->
              if List.for_all (fun e -> e.e_receiver = None) arm_edges then
                Lint.emit
                  ~related:
                    [
                      Lint.related_of_loc
                        ~msg:(Printf.sprintf "constructor %s declared here" a.a_ctor)
                        a.a_loc;
                    ]
                  emitter Lint.Message_flow first.e_loc
                  (Printf.sprintf
                     "every send of %s.%s drops its continuation: the tag has no reachable receiver"
                     u.u_key a.a_ctor))
        u.u_arms)
    univs;
  List.iter
    (fun loc ->
      Lint.emit emitter Lint.Message_flow loc
        "the ~tag argument of this send mentions no declared tag-universe constructor: the protocol graph cannot account for it")
    (List.concat_map snd sends);
  { g_universes = univs; g_edges = edges }

(* ---------- JSON ---------- *)

let to_json g =
  let open Telemetry.Json in
  let opt = function Some s -> String s | None -> Null in
  let at (loc : Location.t) =
    [ ("file", String loc.loc_start.pos_fname); ("line", Int loc.loc_start.pos_lnum) ]
  in
  let arm a = Obj ([ ("ctor", String a.a_ctor); ("wire", opt a.a_wire) ] @ at a.a_loc) in
  let universe u =
    Obj
      ([ ("key", String u.u_key); ("unit", String u.u_unit) ]
      @ at u.u_loc
      @ [ ("arms", List (List.map arm u.u_arms)) ])
  in
  let edge e =
    Obj
      ([
         ("universe", String e.e_universe);
         ("ctor", String e.e_ctor);
         ("sender", String e.e_sender);
         ("receiver", opt e.e_receiver);
       ]
      @ at e.e_loc)
  in
  to_string
    (Obj
       [
         ("universes", List (List.map universe g.g_universes));
         ("edges", List (List.map edge g.g_edges));
       ])
  ^ "\n"

(* ---------- DOT ---------- *)

let dot_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* senders (ellipses) -> tag constructors (boxes, labelled with the wire
   string) -> receivers (diamonds); orphan arms are drawn red. *)
let to_dot g =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "digraph protocol {";
  line "  rankdir=LR;";
  line "  node [fontname=\"monospace\", fontsize=11];";
  let tag_node u a = Printf.sprintf "%s.%s" u a in
  List.iter
    (fun u ->
      List.iter
        (fun a ->
          let has_edge =
            List.exists
              (fun e -> e.e_universe = u.u_key && e.e_ctor = a.a_ctor)
              g.g_edges
          in
          let wire =
            match a.a_wire with
            | Some w -> "\\n\\\"" ^ dot_escape w ^ "\\\""
            | None -> ""
          in
          line "  \"%s\" [shape=box,label=\"%s%s\"%s];"
            (dot_escape (tag_node u.u_key a.a_ctor))
            (dot_escape a.a_ctor) wire
            (if has_edge then "" else ",color=red,fontcolor=red"))
        u.u_arms)
    g.g_universes;
  let seen = Hashtbl.create 32 in
  let once key f = if not (Hashtbl.mem seen key) then (Hashtbl.add seen key (); f ()) in
  List.iter
    (fun e ->
      once ("s:" ^ e.e_sender) (fun () ->
          line "  \"%s\" [shape=ellipse];" (dot_escape e.e_sender));
      let tag = tag_node e.e_universe e.e_ctor in
      once ("e:" ^ e.e_sender ^ ">" ^ tag) (fun () ->
          line "  \"%s\" -> \"%s\";" (dot_escape e.e_sender) (dot_escape tag));
      match e.e_receiver with
      | None ->
          once ("e:" ^ tag ^ ">!") (fun () ->
              line "  \"%s\" -> \"dropped\" [style=dashed];" (dot_escape tag);
              once "n:dropped" (fun () ->
                  line "  \"dropped\" [shape=diamond,color=gray];"))
      | Some r ->
          let rn = "recv:" ^ r in
          once ("n:" ^ rn) (fun () ->
              line "  \"%s\" [shape=diamond,label=\"%s\"];" (dot_escape rn)
                (dot_escape r));
          once ("e:" ^ tag ^ ">" ^ rn) (fun () ->
              line "  \"%s\" -> \"%s\";" (dot_escape tag) (dot_escape rn)))
    g.g_edges;
  line "}";
  Buffer.contents buf
