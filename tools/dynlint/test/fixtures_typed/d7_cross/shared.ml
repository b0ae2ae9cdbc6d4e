(* Module-level mutable state in a different compilation unit than the
   Pool call site — only a typed, cross-module pass can see this. *)
let total : int ref = ref 0 (* dynlint: allow global-state -- fixture *)
