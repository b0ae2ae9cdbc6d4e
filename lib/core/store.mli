(** Per-node controller state — the contents of a node's "whiteboard".

    One layout for both controllers: the mobile packages hosted at the
    node with a bitmask of their levels, the merged static permit count,
    and the reject flag. {!Central} keeps one per node; {!Dist}'s
    whiteboard adds only what Section 4 adds (the lock, the down pointer
    and the queue) next to one. The map from nodes to stores is owned by
    the controller; a node without an entry is equivalent to an empty
    store.

    The record is [private]: other modules read its fields in place (a
    climb hop's mask test is one load, with no call into this module,
    which the dev build compiles opaque), but they cannot build one or
    write a field, so every write goes through the functions below and
    keeps [mask] in step with [mobiles]. *)

type t = private {
  mutable mask : int;  (** as {!mask} *)
  mutable mobiles : Package.t list;  (** as {!mobiles} *)
  mutable static : int;  (** as {!static} *)
  mutable reject : bool;  (** as {!rejecting} *)
}

val empty : unit -> t

val mobiles : t -> Package.t list
(** Hosted mobile packages, newest first. *)

val mask : t -> int
(** The hosted levels as a bitmask: bit [j] is set exactly while a level-[j]
    mobile package is hosted. Levels must stay below [Sys.int_size - 1]. *)

val hosts : t -> int -> bool
(** [hosts t j]: whether a level-[j] mobile package is hosted — one mask
    test. A node at distance [d] above a requester is a filler for it
    (Section 3) iff it hosts a package of the one level
    [Params.filler_level_index p d]. *)

val add_mobile : t -> Package.t -> unit

val take : t -> int -> Package.t
(** [take t j] removes and returns the newest hosted level-[j] package:
    the one added last, where after [absorb parent child] every package of
    [child] counts as newer than every package [parent] held before.
    @raise Invalid_argument if no level-[j] package is hosted. *)

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
    [parent] (used when [child]'s node is deleted), [child]'s packages
    ahead of [parent]'s in {!mobiles}. Empties [child]. *)

val clear : t -> unit
(** Drop every package and flag: afterwards [t] is as {!empty} makes it. *)
