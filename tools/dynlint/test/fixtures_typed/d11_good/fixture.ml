(* Annotated functions exercising every exemption the checker grants:
   eliminable refs (compiled to a mutable stack slot), closed closures
   (statically allocated), raising guard paths, the optional-argument
   elaboration spine, calls between annotated same-unit functions, and
   higher-order parameters whose allocation behaviour belongs to the
   caller. All of these must verify silently. *)

let sum_to n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := !acc + i
  done;
  !acc
  [@@dynlint.zero_alloc]

let clamp lo hi (x : int) =
  if x < lo then lo else if x > hi then hi else x
  [@@dynlint.zero_alloc]

let checked_div a b =
  if b = 0 then invalid_arg "checked_div: zero divisor";
  a / b
  [@@dynlint.zero_alloc]

let offset ?(base = 0) x = base + x [@@dynlint.zero_alloc]
let twice_clamped lo hi x = clamp lo hi (clamp lo hi x) [@@dynlint.zero_alloc]
let apply_twice f x = f (f x) [@@dynlint.zero_alloc]

(* closed: no captured idents, so the function value is a static block *)
let succ_fun () = fun x -> x + 1 [@@dynlint.zero_alloc]

let count_down n =
  let i = ref n in
  let steps = ref 0 in
  while !i > 0 do
    decr i;
    incr steps
  done;
  !steps
  [@@dynlint.zero_alloc]
