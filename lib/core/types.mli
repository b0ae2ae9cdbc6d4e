(** Shared vocabulary of every controller variant. *)

type outcome =
  | Granted  (** a permit was delivered and the requested event occurred *)
  | Rejected  (** a reject was delivered (after a reject wave) *)
  | Exhausted
      (** report-mode only: the controller would have started a reject wave;
          no state changed and the request is still unanswered *)

val pp_outcome : Format.formatter -> outcome -> unit
val equal_outcome : outcome -> outcome -> bool

val outcome_name : outcome -> string
(** Lowercase label, stable across versions: telemetry events and the CLI
    both key on it. *)

type reject_mode =
  | Wave  (** on exhaustion, place a reject package at every node *)
  | Report  (** on exhaustion, answer [Exhausted] and change nothing *)
