type run = {
  discipline : Scheduler.discipline;
  seed : int;
  violations : string list;
  reorders : int;
}

let default_shard_size = 4

(* Contiguous chunks of [size], preserving order. *)
let chunk size items =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if n = size then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 items

let sweep ?jobs ?(shard_size = default_shard_size) ~seeds scenario =
  if shard_size < 1 then invalid_arg "Explore.sweep: shard_size must be >= 1";
  (* Every (discipline, seed) cell is an independent simulation — the
     scenario builds its own [Net] from them — so cells shard across the
     pool in contiguous chunks: one pool task runs a whole shard
     sequentially, amortizing per-task setup over [shard_size] cells
     instead of paying it per cell. The shard boundaries are a function of
     the cell list alone (never of [jobs]), each cell owns its tree, net
     and RNG, and [Pool.map] preserves input order, so the concatenated
     result — order included — is bit-identical to a sequential sweep at
     any parallelism. *)
  let run_cell (discipline, seed) =
    let violations, reorders =
      try scenario ~discipline ~seed
      with exn ->
        ([ Printf.sprintf "exception: %s" (Printexc.to_string exn) ], 0)
    in
    { discipline; seed; violations; reorders }
  in
  List.concat_map (fun d -> List.map (fun s -> (d, s)) seeds) Scheduler.defaults
  |> chunk shard_size
  |> Pool.map ?jobs (List.map run_cell)
  |> List.concat

let failures runs = List.filter (fun r -> r.violations <> []) runs
let reorder_free runs = List.for_all (fun r -> r.reorders = 0) runs

let pp_run ppf r =
  Format.fprintf ppf "[%s seed=%d reorders=%d]%s" (Scheduler.name r.discipline)
    r.seed r.reorders
    (match r.violations with
    | [] -> " ok"
    | vs -> " " ^ String.concat "; " vs)
