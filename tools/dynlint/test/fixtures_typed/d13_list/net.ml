(* Stand-in for the real Net: just enough surface for a send call site. *)
type t = unit

let send_to (_ : t) ~src ~dst ~tag ~bits k =
  ignore (src, dst, tag, bits);
  k 0
