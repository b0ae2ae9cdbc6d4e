open Controller

let test_phi_psi () =
  let p = Params.make ~m:1000 ~w:100 ~u:50 in
  Alcotest.(check int) "phi = max(W/2U,1)" 1 p.Params.phi;
  let p2 = Params.make ~m:1000 ~w:400 ~u:50 in
  Alcotest.(check int) "phi large W" 4 p2.Params.phi;
  Alcotest.(check int) "psi divisible by 4" 0 (p.Params.psi mod 4);
  Alcotest.(check bool) "psi positive" true (p.Params.psi > 0)

let test_mobile_size () =
  let p = Params.make ~m:1000 ~w:400 ~u:50 in
  Alcotest.(check int) "level 0" p.Params.phi (Params.mobile_size p 0);
  Alcotest.(check int) "level 3" (8 * p.Params.phi) (Params.mobile_size p 3)

let test_landing_integral () =
  let p = Params.make ~m:1000 ~w:3 ~u:500 in
  (* 3 * 2^(k-1) * psi must be integral for every level including 0. *)
  Alcotest.(check int) "level 0 landing" (3 * p.Params.psi / 2) (Params.landing_distance p 0);
  Alcotest.(check int) "level 2 landing" (6 * p.Params.psi) (Params.landing_distance p 2);
  Alcotest.(check bool) "monotone" true
    (Params.landing_distance p 0 < Params.landing_distance p 1)

(* The loop definitions of the filler level and the creation level, the
   reference for the closed forms in [Params]. *)
let ref_filler_level (p : Params.t) d =
  if d <= 2 * p.psi then 0
  else
    let rec go j =
      if j > p.max_level + 1 then -1
      else if (1 lsl j) * p.psi < d && d <= (1 lsl (j + 1)) * p.psi then j
      else go (j + 1)
    in
    go 1

let ref_creation_level (p : Params.t) d_root =
  let rec go j = if d_root <= (1 lsl (j + 1)) * p.psi then j else go (j + 1) in
  go 0

(* Central-deep's U with its W and the W of its first two iterations, E12's
   psi scales, and the smallest U next to a large one. *)
let exhaustive_params =
  List.map (fun w -> Params.make ~m:12288 ~w ~u:36928) [ 1536; 3072; 6144 ]
  @ List.map
      (fun psi_scale -> Params.make_scaled ~psi_scale ~m:2048 ~w:1024 ~u:6208)
      [ 0.25; 0.5; 1.0; 2.0; 4.0 ]
  @ List.map (fun u -> Params.make ~m:(4 * u) ~w:u ~u) [ 1; 2; 3; 4096 ]

(* Every distance up to 2^(max_level + 3) psi, past the last filler band. *)
let check_every_distance name f ref_f =
  List.iter
    (fun (p : Params.t) ->
      for d = 0 to (1 lsl (p.max_level + 3)) * p.psi do
        let got = f p d and want = ref_f p d in
        if got <> want then
          Alcotest.failf "%s %a at d = %d: %d, the loop gives %d" name Params.pp p d got want
      done)
    exhaustive_params

(* The filler condition partitions distances: exactly level 0 for d <= 2 psi,
   exactly one level j >= 1 with 2^j psi < d <= 2^(j+1) psi beyond. *)
let test_filler_partition () =
  check_every_distance "filler_level_index" Params.filler_level_index ref_filler_level

let test_creation_level_minimal () =
  check_every_distance "creation_level" Params.creation_level ref_creation_level

(* landing_distance (k-1) always lies strictly below the filler zone of level
   k, so Proc always moves packages downwards. *)
let prop_landing_below_filler =
  Helpers.qcheck ~count:50 "landing distance below filler zone"
    QCheck2.Gen.(int_range 2 100000)
    (fun u ->
      let p = Params.make ~m:u ~w:(max 1 (u / 3)) ~u in
      let ok = ref true in
      for k = 1 to p.Params.max_level do
        if Params.landing_distance p (k - 1) >= (1 lsl k) * p.Params.psi then ok := false
      done;
      !ok)

(* The domain of a level-k package never reaches the requester: its bottom
   sits at distance 2^k psi (>= psi) above it. *)
let prop_domain_fits =
  Helpers.qcheck ~count:50 "domain fits between requester and host"
    QCheck2.Gen.(int_range 2 100000)
    (fun u ->
      let p = Params.make ~m:u ~w:(max 1 (u / 3)) ~u in
      let ok = ref true in
      for k = 0 to p.Params.max_level do
        if Params.landing_distance p k - Params.domain_size p k <= 0 then ok := false
      done;
      !ok)

let test_invalid () =
  Alcotest.check_raises "w = 0 rejected" (Invalid_argument "Params.make: base controller requires W >= 1")
    (fun () -> ignore (Params.make ~m:10 ~w:0 ~u:5));
  Alcotest.check_raises "u = 0 rejected" (Invalid_argument "Params.make: U must be positive")
    (fun () -> ignore (Params.make ~m:10 ~w:1 ~u:0))

let suite =
  ( "params",
    [
      Alcotest.test_case "phi and psi" `Quick test_phi_psi;
      Alcotest.test_case "mobile sizes" `Quick test_mobile_size;
      Alcotest.test_case "landing distances" `Quick test_landing_integral;
      Alcotest.test_case "invalid parameters" `Quick test_invalid;
      Alcotest.test_case "filler level partitions distances" `Quick test_filler_partition;
      Alcotest.test_case "creation level is the minimal j" `Quick test_creation_level_minimal;
      prop_landing_below_filler;
      prop_domain_fits;
    ] )
