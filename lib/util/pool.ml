let env_var = "DYNNET_JOBS"

let default_jobs () =
  match Sys.getenv_opt env_var with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> 1)

(* The runtime supports at most 128 live domains, including the caller's;
   clamp well below so nested test suites can never trip the hard limit. *)
let max_jobs = 64

let map ?jobs f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let jobs = min (min jobs max_jobs) n in
  let results = Array.make n None in
  let errors = Array.make n None in
  (* Every domain, the caller's included, claims the next unclaimed index
     until none is left; each slot is written by the one domain that
     claimed it. *)
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      (match f arr.(i) with
      | v -> results.(i) <- Some v
      | exception e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
      work ()
    end
  in
  (* A failed spawn (the runtime's domain limit) leaves the items to the
     domains already running, so every helper started here is joined. *)
  let rec spawn k acc =
    if k <= 0 then acc
    else
      match Domain.spawn work with
      | d -> spawn (k - 1) (d :: acc)
      | exception _ -> acc
  in
  let helpers = spawn (jobs - 1) [] in
  (* The joins also make the helpers' slot writes visible here. *)
  Fun.protect ~finally:(fun () -> List.iter Domain.join helpers) work;
  (* Every task has run: re-raise the lowest-indexed failure, else collect
     in input order. *)
  match Array.find_map Fun.id errors with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None ->
      Array.to_list
        (Array.map (function Some v -> v | None -> assert false) results)  (* dynlint: allow unsafe -- every index below n was claimed and ran before the joins returned *)
