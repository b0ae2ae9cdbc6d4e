(* Four D7 races: a local ref and a module-level Hashtbl captured by a
   Pool.map closure, a Buffer captured by the closure of a second
   Pool.map, and a Hashtbl captured by a closure that reaches Pool.map by
   name rather than literally. *)
let hits : (int, int) Hashtbl.t = Hashtbl.create 16 (* dynlint: allow global-state -- fixture *)

let run_all items =
  let total = ref 0 in
  let results =
    Pool.map
      (fun x ->
        total := !total + x;
        Hashtbl.replace hits x (x * 2);
        x * 2)
      items
  in
  (results, !total)

let log_all items =
  let buf = Buffer.create 64 in
  ignore (Pool.map (fun x -> Buffer.add_string buf (string_of_int x)) items);
  Buffer.contents buf

let run_named items =
  let seen : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let worker x =
    Hashtbl.replace seen x x;
    x
  in
  let results = Pool.map worker items in
  (results, Hashtbl.length seen)
