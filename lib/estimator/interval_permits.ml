module Central = Controller.Central
module Package = Controller.Package

type t = {
  mutable storage_lo : int;  (* next unassigned integer of the root's range *)
  mutable storage_hi : int;  (* inclusive *)
  packages : (int, int * int) Hashtbl.t;  (* package id -> interval *)
  deposits : (Dtree.node, int list ref) Hashtbl.t;  (* static integers, ascending *)
  mutable last : int option;
}

let create ~base ~m () =
  if m < 0 then invalid_arg "Interval_permits.create: negative budget";
  {
    storage_lo = base;
    storage_hi = base + m - 1;
    packages = Hashtbl.create 32;
    deposits = Hashtbl.create 32;
    last = None;
  }

let deposit t node ints =
  match Hashtbl.find_opt t.deposits node with
  | Some r -> r := List.merge Int.compare !r ints
  | None -> Hashtbl.replace t.deposits node (ref ints)

let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i)

let hook t (ev : Central.package_event) =
  match ev with
  | Central.Created pkg ->
      (* the package takes a prefix of the storage interval *)
      let lo = t.storage_lo in
      let hi = lo + pkg.Package.size - 1 in
      if hi > t.storage_hi then invalid_arg "Interval_permits: storage underflow";
      t.storage_lo <- hi + 1;
      Hashtbl.replace t.packages pkg.Package.id (lo, hi)
  | Central.Split { parent; left; right } ->
      let lo, hi =
        match Hashtbl.find_opt t.packages parent.Package.id with
        | Some iv -> iv
        | None -> invalid_arg "Interval_permits: split of an untracked package"
      in
      Hashtbl.remove t.packages parent.Package.id;
      let mid = lo + left.Package.size - 1 in
      Hashtbl.replace t.packages left.Package.id (lo, mid);
      Hashtbl.replace t.packages right.Package.id (mid + 1, hi)
  | Central.Became_static { pkg; node } ->
      let lo, hi =
        match Hashtbl.find_opt t.packages pkg.Package.id with
        | Some iv -> iv
        | None -> invalid_arg "Interval_permits: untracked package became static"
      in
      Hashtbl.remove t.packages pkg.Package.id;
      deposit t node (range lo hi)
  | Central.Store_moved { from_; to_ } -> (
      match Hashtbl.find_opt t.deposits from_ with
      | None -> ()
      | Some r ->
          deposit t to_ !r;
          Hashtbl.remove t.deposits from_)
  | Central.Granted_at node -> (
      match Hashtbl.find_opt t.deposits node with
      | Some r -> (
          match !r with
          | x :: rest ->
              r := rest;
              if rest = [] then Hashtbl.remove t.deposits node;
              t.last <- Some x
          | [] -> invalid_arg "Interval_permits: grant with no deposited integer")
      | None -> invalid_arg "Interval_permits: grant with no deposited integer")

let last_granted t =
  match t.last with
  | Some x -> x
  | None -> invalid_arg "Interval_permits.last_granted: nothing granted yet"
