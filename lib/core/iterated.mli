(** The full centralized [(M,W)]-controller of Observation 3.4: the
    Section 3.1 controller ({!Central}) run through the waste-halving
    iteration ({!Iterate}), with move complexity
    [O(U log^2 U log (M / (W+1)))] for a known bound [U]. *)

include Iterate.S

val create :
  ?reject_mode:Types.reject_mode ->
  ?telemetry:Telemetry.Sink.t ->
  ?hooks:Central.hooks ->
  m:int ->
  w:int ->
  u:int ->
  tree:Dtree.t ->
  unit ->
  t
(** [reject_mode] defaults to [Wave]. Each stage runs a fresh report-mode
    {!Central} base over [Params.make ~m:M_i ~w:W_i ~u], built with
    [telemetry] and [hooks]: every base reports to the same hooks.
    @raise Invalid_argument if [m < 0], [w < 0] or [u < 1]. *)
