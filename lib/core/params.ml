type t = {
  m : int;
  w : int;
  u : int;
  phi : int;
  psi : int;
  max_level : int;
}

let make_scaled ~psi_scale ~m ~w ~u =
  if m < 0 then invalid_arg "Params.make: M must be non-negative";
  if w < 1 then invalid_arg "Params.make: base controller requires W >= 1";
  if u < 1 then invalid_arg "Params.make: U must be positive";
  if psi_scale <= 0.0 then invalid_arg "Params.make: psi_scale must be positive";
  let phi = max (w / (2 * u)) 1 in
  let psi = 4 * (Stats.ceil_log2 (max u 2) + 2) * max (Stats.ceil_div u w) 1 in
  let psi =
    if psi_scale = 1.0 then psi
    else max 4 (4 * int_of_float (Float.round (psi_scale *. float_of_int psi /. 4.0)))
  in
  (* A level-k package has size 2^k * phi <= the root's whole budget is not
     required; levels are bounded by the deepest possible requester, i.e. by
     creation_level at distance u. *)
  let rec lvl j = if (1 lsl (j + 1)) * psi >= u then j else lvl (j + 1) in
  { m; w; u; phi; psi; max_level = max (lvl 0) 1 }

let make ~m ~w ~u = make_scaled ~psi_scale:1.0 ~m ~w ~u

let mobile_size p k = (1 lsl k) * p.phi

let landing_distance p k =
  (* 3 * 2^(k-1) * psi; psi is a multiple of 4 so k = 0 stays integral. *)
  if k = 0 then 3 * p.psi / 2 else 3 * (1 lsl (k - 1)) * p.psi
  [@@dynlint.zero_alloc]

let domain_size p k = if k = 0 then p.psi / 2 else (1 lsl (k - 1)) * p.psi

(* The distance band of [d]: 0 up to 2 psi, else the j >= 1 with
   2^j psi < d <= 2^(j+1) psi, that is 2^j <= (d - 1) / psi < 2^(j+1). *)
let band p d = if d <= 2 * p.psi then 0 else Stats.ilog2 ((d - 1) / p.psi)
  [@@dynlint.zero_alloc]

let filler_level_index p d =
  let j = band p d in
  if j > p.max_level + 1 then -1 else j
  [@@dynlint.zero_alloc]

let creation_level p d_root = band p d_root [@@dynlint.zero_alloc]

let pp ppf p =
  Format.fprintf ppf "(M=%d W=%d U=%d phi=%d psi=%d max_level=%d)" p.m p.w p.u
    p.phi p.psi p.max_level
