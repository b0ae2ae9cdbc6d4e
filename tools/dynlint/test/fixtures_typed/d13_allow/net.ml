(* Net stub: the D13 send matcher keys on the [Net.send_to]/[Net.send_up]
   names, and the receiver is the last function-typed positional argument. *)

let send_to _t ~src:_ ~dst:_ ~tag:_ ~bits:_ k = ignore k
