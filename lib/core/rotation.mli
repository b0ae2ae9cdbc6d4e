(** The distributed epoch boundary of Observation 2.1, shared by
    [Epochs.Dist] and {!Dist_adaptive}. A client ['c] parks each request
    ['r] its exhausted controllers turned away; once [drained c] holds
    (tested at the first park, then every 2 ticks), the engine records an
    [Epoch] event on the network's sink (numbered from 1, with the tree
    size), runs [next c], and routes the parked requests with [route c],
    one tick later and in the order they were parked. *)

type ('c, 'r) t

val create :
  net:Net.t -> name:string -> drained:('c -> bool) -> next:('c -> unit) ->
  route:('c -> 'r -> unit) -> ('c, 'r) t
(** [name] names the [Epoch] events. *)

val park : ('c, 'r) t -> 'c -> 'r -> unit
(** Queue [r], and start a rotation unless one is pending; it can complete
    before [park] returns. *)

val rotating : ('c, 'r) t -> bool
(** A rotation is pending: the client parks what it routes meanwhile. *)

val epochs : ('c, 'r) t -> int
