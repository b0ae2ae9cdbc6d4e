let total_serial items =
  let total = ref 0 in
  ignore
    (Pool.map
       (fun x ->
         (* dynlint: allow parallel-race -- single-domain smoke fixture *)
         total := !total + x)
       items);
  !total

let double_named items =
  (* an ident-bound closure with no mutable captures: the chase must stay
     silent on it *)
  let worker x = x * 2 in
  Pool.map worker items
