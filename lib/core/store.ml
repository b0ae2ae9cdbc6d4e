type t = {
  mutable mobiles : Package.t list;
  mutable static : int;
  mutable reject : bool;
}

let empty () = { mobiles = []; static = 0; reject = false }
let mobiles t = t.mobiles
let add_mobile t p = t.mobiles <- p :: t.mobiles

let remove_mobile t (p : Package.t) =
  let found = ref false in
  t.mobiles <-
    List.filter
      (fun (q : Package.t) ->
        if (not !found) && q.id = p.id then begin
          found := true;
          false
        end
        else true)
      t.mobiles;
  if not !found then invalid_arg "Store.remove_mobile: package not hosted here"

(* [j] is threaded as an argument: capturing it would make [first] a real
   closure, allocated once per call — i.e. once per hop of every climb. *)
let rec first_at_level j = function
  | [] -> None
  | (p : Package.t) :: rest -> if p.level = j then Some p else first_at_level j rest

let find_filler t ~params ~distance =
  (* Runs once per hop of every climb: no intermediate candidate list, and
     the level query is the int-returning variant, so a miss allocates
     nothing at all. *)
  let j = Params.filler_level_index params distance in
  if j < 0 then None else first_at_level j t.mobiles

let static t = t.static

let add_static t n =
  if n < 0 then invalid_arg "Store.add_static: negative amount";
  t.static <- t.static + n

let take_static t =
  if t.static <= 0 then invalid_arg "Store.take_static: no static permit";
  t.static <- t.static - 1

let rejecting t = t.reject
let set_rejecting t = t.reject <- true
let is_empty t = t.mobiles = [] && t.static = 0 && not t.reject

let permits t =
  List.fold_left (fun acc (p : Package.t) -> acc + p.size) t.static t.mobiles

let absorb parent child =
  parent.mobiles <- child.mobiles @ parent.mobiles;
  parent.static <- parent.static + child.static;
  parent.reject <- parent.reject || child.reject;
  child.mobiles <- [];
  child.static <- 0;
  child.reject <- false
