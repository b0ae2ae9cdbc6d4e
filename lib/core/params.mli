(** Parameters of the fixed-[U] [(M,W)]-controller of Section 3.1.

    [U] is the promised upper bound on the number of nodes ever to exist
    (initial nodes plus all additions); [M] the permit budget; [W] the
    allowed waste. The derived quantities are the paper's
    [phi = max {floor (W / 2U), 1}] (static-package quantum) and
    [psi = 4 ceil (log2 U + 2) * max {ceil (U / W), 1}] (the distance unit of
    the filler/package geometry). [psi] is a multiple of 4, so every package
    landing distance [3 * 2^(k-1) * psi] is integral. *)

type t = private {
  m : int;  (** permit budget M *)
  w : int;  (** waste bound W, >= 1 for the base controller *)
  u : int;  (** bound on nodes ever to exist *)
  phi : int;  (** static / level-0 package size *)
  psi : int;  (** distance unit *)
  max_level : int;  (** mobile package levels range over 0..max_level *)
}

val make : m:int -> w:int -> u:int -> t
(** @raise Invalid_argument unless [m >= 0], [w >= 1] and [u >= 1]. *)

val make_scaled : psi_scale:float -> m:int -> w:int -> u:int -> t
(** Like {!make} with the paper's [psi] multiplied by [psi_scale] — strictly
    an ablation knob for experiment E12: shrinking [psi] cheapens walks but
    voids the Lemma 3.2 waste analysis; growing it degrades the controller
    towards the trivial root-walk scheme. The result is re-rounded to a
    multiple of 4 to keep landing distances integral. *)

val mobile_size : t -> int -> int
(** [mobile_size p k] is [2^k * phi], the size of a level-[k] mobile
    package. *)

val landing_distance : t -> int -> int
(** [landing_distance p k] is [3 * 2^(k-1) * psi]: the distance above the
    requesting node at which a level-[k] package is parked by [Proc] (the
    paper's [u_k]). Defined for [k >= 0]. *)

val domain_size : t -> int -> int
(** [domain_size p k] is [2^(k-1) * psi], the size of the domain of a
    level-[k] mobile package (first domain invariant). *)

val filler_level_index : t -> int -> int
(** [filler_level_index p d]: the unique package level [j] such that a
    level-[j] mobile package hosted at distance [d] above a requester makes
    its host a filler node: [j = 0] iff [d <= 2 psi], otherwise the
    [j >= 1] with [2^j psi < d <= 2^(j+1) psi], that is
    [ilog2 ((d - 1) / psi)]; [-1] if [d] exceeds the range covered by
    levels [0..max_level + 1]. Closed form, allocation-free. *)

val creation_level : t -> int -> int
(** [creation_level p d_root]: the smallest [j >= 0] with
    [d_root <= 2^(j+1) psi] — the level of the package the root creates for a
    requester at distance [d_root] (item 3b of GrantOrReject). The same
    closed form as {!filler_level_index}, without its upper limit. *)

val pp : Format.formatter -> t -> unit
