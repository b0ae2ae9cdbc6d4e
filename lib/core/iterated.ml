include Iterate.Make (Central)

let create ?reject_mode ?telemetry ?hooks ~m ~w ~u ~tree () =
  if u < 1 then invalid_arg "Iterated.create: bad parameters";
  let base ~m ~w =
    Central.create ~reject_mode:Types.Report ?hooks ?telemetry ~params:(Params.make ~m ~w ~u)
      ~tree ()
  in
  create ?reject_mode ?telemetry ~base ~m ~w ~tree ()
