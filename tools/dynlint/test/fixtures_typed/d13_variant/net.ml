(* Stand-in for the real Net: the intern boundary plus a send call site. *)
type t = unit
type id = int

let intern_tag (_ : t) (s : string) : id = String.length s

let send_to (_ : t) ~src ~dst ~tag ~bits k =
  ignore (src, dst, (tag : id), bits);
  k 0
