type run = {
  discipline : Scheduler.discipline;
  seed : int;
  violations : string list;
  reorders : int;
}

let sweep ?jobs ~seeds scenario =
  (* Every (discipline, seed) cell is an independent simulation — the
     scenario builds its own [Net] from them — so the cells fan out one by
     one over [Pool.map]. Each cell owns its tree, net and RNG, and
     [Pool.map] preserves input order, so the result — order included — is
     bit-identical to a sequential sweep at any parallelism. *)
  let run_cell (discipline, seed) =
    let violations, reorders =
      try scenario ~discipline ~seed
      with exn ->
        ([ Printf.sprintf "exception: %s" (Printexc.to_string exn) ], 0)
    in
    { discipline; seed; violations; reorders }
  in
  List.concat_map (fun d -> List.map (fun s -> (d, s)) seeds) Scheduler.defaults
  |> Pool.map ?jobs run_cell

let failures runs = List.filter (fun r -> r.violations <> []) runs
let reorder_free runs = List.for_all (fun r -> r.reorders = 0) runs

let pp_run ppf r =
  Format.fprintf ppf "[%s seed=%d reorders=%d]%s" (Scheduler.name r.discipline)
    r.seed r.reorders
    (match r.violations with
    | [] -> " ok"
    | vs -> " " ^ String.concat "; " vs)
