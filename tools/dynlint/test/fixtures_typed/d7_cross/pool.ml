(* Stand-in for the real Pool: same surface, sequential semantics. The
   typed pass matches call heads by path suffix, so this stub triggers
   D7 exactly like lib/util/pool.ml would. *)
let map ?jobs f xs =
  ignore jobs;
  List.map f xs
