(** Per-node controller state — the contents of a node's "whiteboard".

    Holds the mobile packages hosted at the node, the merged static permit
    count, and the reject flag. The map from nodes to stores is owned by the
    controller; a node without an entry is equivalent to an empty store. *)

type t

val empty : unit -> t

val mobiles : t -> Package.t list
(** Hosted mobile packages, newest first. *)

val add_mobile : t -> Package.t -> unit
val remove_mobile : t -> Package.t -> unit

val find_filler : t -> params:Params.t -> distance:int -> Package.t option
(** The mobile package (smallest level first) making this node a filler for
    a requester [distance] hops below, per the filler definition of
    Section 3. *)

val static : t -> int
val add_static : t -> int -> unit

val take_static : t -> unit
(** Consume one static permit. @raise Invalid_argument if none. *)

val rejecting : t -> bool
val set_rejecting : t -> unit

val is_empty : t -> bool
(** No mobile packages, no static permits, no reject flag. *)

val permits : t -> int
(** Total permits held (mobile + static). *)

val absorb : t -> t -> unit
(** [absorb parent child]: move every package and flag of [child] into
    [parent] (used when [child]'s node is deleted). Empties [child]. *)
