(** Shared vocabulary of every controller variant. *)

type outcome =
  | Granted  (** a permit was delivered and the requested event occurred *)
  | Rejected  (** a reject was delivered (after a reject wave) *)
  | Exhausted
      (** report-mode only: the controller would have started a reject wave;
          no state changed and the request is still unanswered *)

let pp_outcome ppf = function
  | Granted -> Format.pp_print_string ppf "granted"
  | Rejected -> Format.pp_print_string ppf "rejected"
  | Exhausted -> Format.pp_print_string ppf "exhausted"

let equal_outcome (a : outcome) b = a = b

let outcome_name = function
  | Granted -> "granted"
  | Rejected -> "rejected"
  | Exhausted -> "exhausted"

type reject_mode =
  | Wave  (** on exhaustion, place a reject package at every node *)
  | Report  (** on exhaustion, answer [Exhausted] and change nothing *)

(** Counters every controller exposes; move complexity is the paper's cost
    measure (Section 2.2): each move of a set of objects across one tree edge
    costs one. *)
type counters = {
  moves : int;
  granted : int;
  rejected : int;
}
