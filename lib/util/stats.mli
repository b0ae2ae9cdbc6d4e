(** Small numeric helpers shared by tests and the benchmark harness. *)

val log2 : float -> float

val ilog2 : int -> int
(** [ilog2 n] is [floor (log2 n)] for [n >= 1]. @raise Invalid_argument
    otherwise. *)

val ceil_log2 : int -> int
(** Smallest [k] with [2^k >= n], for [n >= 1]. *)

val ceil_div : int -> int -> int

val mean : float list -> float
val median : float list -> float

val fit_ratio : (float * float) list -> float
(** [fit_ratio pairs] with pairs [(measured, bound)]: the least-squares scale
    [c] minimizing [sum (measured - c * bound)^2], i.e. how many "bound units"
    each measurement costs. Used to check that measured complexity tracks a
    theoretical bound shape. *)

val pretty_int : int -> string
(** Thousands-separated rendering, e.g. [1_234_567 -> "1,234,567"]. *)
