(** SARIF 2.1.0 output for dynlint findings, so CI can publish them as PR
    annotations via the standard SARIF upload action.

    One run, driver "dynlint", with every live rule in the table (stable
    [ruleIndex] regardless of which rules fired) and one [error]-level
    result per finding. Regions use 1-based columns as the spec requires
    (dynlint's text output is 0-based).

    Each result carries a [partialFingerprints] entry keyed
    ["dynlintFinding/v1"]: an MD5 over (rule id, file, message) — line and
    column deliberately excluded, so a finding keeps its identity when
    unrelated edits shift it, and stacked PRs diffing successive SARIF
    uploads surface only genuinely new findings. *)

val render : Lint.finding list -> string
(** The complete SARIF document, newline-terminated. An empty finding list
    still renders a valid document with an empty [results] array. *)
