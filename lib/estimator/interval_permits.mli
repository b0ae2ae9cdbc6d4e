(** Permit intervals riding the controller's packages (Theorem 5.2's
    mechanism, faithfully).

    The root's storage holds the integer interval [\[base, base + M - 1\]];
    every permit {e is} one integer. A package created at the root takes a
    prefix of the storage interval; a split halves the package's interval
    with the package; a package becoming static deposits its interval at the
    hosting node; a deleted node's intervals move to its parent with its
    store; a grant consumes the smallest integer available at the node — all
    driven by {!Controller.Central}'s [on_package_event] hook, with no
    global coordination. *)

type t

val create : base:int -> m:int -> unit -> t
(** Track a controller created with budget [m]; its permits own the
    integers [\[base, base + m - 1\]]. Pass {!hook} to the controller. *)

val hook : t -> Controller.Central.package_event -> unit

val last_granted : t -> int
(** The integer consumed by the most recent grant.
    @raise Invalid_argument before the first grant. *)
