type t = {
  mutable mask : int;  (* bit j set while a level-j mobile package is hosted *)
  mutable mobiles : Package.t list;  (* newest first *)
  mutable static : int;
  mutable reject : bool;
}

let empty () = { mask = 0; mobiles = []; static = 0; reject = false }
let mobiles t = t.mobiles
let mask t = t.mask [@@dynlint.zero_alloc]
let hosts t j = t.mask land (1 lsl j) <> 0 [@@dynlint.zero_alloc]

let add_mobile t (p : Package.t) =
  t.mobiles <- p :: t.mobiles;
  t.mask <- t.mask lor (1 lsl p.level)

(* The list walkers take the level as an argument: capturing it would make
   each one a real closure, allocated once per call. *)
let rec newest j = function
  | [] -> invalid_arg "Store.take: no mobile package of this level"
  | (p : Package.t) :: rest -> if p.level = j then p else newest j rest

let rec any_at j = function
  | [] -> false
  | (p : Package.t) :: rest -> p.level = j || any_at j rest

(* [ps] without [p]: the packages before it are copied, the rest shared. *)
let rec without (p : Package.t) = function
  | [] -> []
  | q :: rest -> if q == p then rest else q :: without p rest

let take t j =
  let p = newest j t.mobiles in
  t.mobiles <- without p t.mobiles;
  if not (any_at j t.mobiles) then t.mask <- t.mask land lnot (1 lsl j);
  p

let static t = t.static

let add_static t n =
  if n < 0 then invalid_arg "Store.add_static: negative amount";
  t.static <- t.static + n

let take_static t =
  if t.static <= 0 then invalid_arg "Store.take_static: no static permit";
  t.static <- t.static - 1

let rejecting t = t.reject
let set_rejecting t = t.reject <- true
let is_empty t = t.mask = 0 && t.static = 0 && not t.reject

let permits t =
  List.fold_left (fun acc (p : Package.t) -> acc + p.size) t.static t.mobiles

let clear t =
  t.mobiles <- [];
  t.mask <- 0;
  t.static <- 0;
  t.reject <- false

let absorb parent child =
  parent.mobiles <- child.mobiles @ parent.mobiles;
  parent.mask <- parent.mask lor child.mask;
  parent.static <- parent.static + child.static;
  parent.reject <- parent.reject || child.reject;
  clear child
