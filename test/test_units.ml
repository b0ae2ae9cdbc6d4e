open Controller

(* --- Rng ------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:9 and b = Rng.create ~seed:9 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create ~seed:10 in
  for _ = 1 to 10_000 do
    let x = Rng.int r 7 in
    if x < 0 || x >= 7 then Alcotest.failf "out of range: %d" x
  done;
  for _ = 1 to 1000 do
    let x = Rng.int_in r (-5) 5 in
    if x < -5 || x > 5 then Alcotest.failf "int_in out of range: %d" x;
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_rng_split_independent () =
  let r = Rng.create ~seed:11 in
  let s = Rng.split r in
  let xs = List.init 20 (fun _ -> Rng.int r 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int s 1_000_000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_pick_weighted () =
  let r = Rng.create ~seed:12 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 3000 do
    let c = Rng.pick_weighted r [ ("a", 1.0); ("b", 0.0); ("c", 2.0) ] in
    Hashtbl.replace counts c (1 + Option.value ~default:0 (Hashtbl.find_opt counts c))
  done;
  Alcotest.(check (option int)) "zero weight never picked" None (Hashtbl.find_opt counts "b");
  let a = Hashtbl.find counts "a" and c = Hashtbl.find counts "c" in
  Alcotest.(check bool) "ratio roughly 1:2" true (c > a)

let test_rng_pick_stream_identical () =
  (* pick must draw exactly the index stream List.nth-based picking drew, so
     seeded experiments (E1-E13) reproduce across the array-indexing change *)
  let a = Rng.create ~seed:14 and b = Rng.create ~seed:14 in
  let l = List.init 37 (fun i -> i * i) in
  for _ = 1 to 500 do
    let via_pick = Rng.pick a l in
    let via_nth = List.nth l (Rng.int b (List.length l)) in
    Alcotest.(check int) "same element as the List.nth formulation" via_nth via_pick
  done;
  (* pick_arr shares the stream with pick on the equivalent list *)
  let arr = Array.of_list l in
  for _ = 1 to 100 do
    Alcotest.(check int) "pick_arr = pick" (Rng.pick a l) (Rng.pick_arr b arr)
  done

let test_rng_shuffle_permutes () =
  let r = Rng.create ~seed:13 in
  let l = List.init 30 Fun.id in
  let s = Rng.shuffle r l in
  Alcotest.(check (list int)) "same multiset" l (List.sort compare s)

(* --- Stats ----------------------------------------------------------- *)

let test_stats () =
  Alcotest.(check int) "ilog2 exact" 6 (Stats.ilog2 64);
  Alcotest.(check int) "ilog2 floor" 6 (Stats.ilog2 127);
  Alcotest.(check int) "ceil_log2 exact" 6 (Stats.ceil_log2 64);
  Alcotest.(check int) "ceil_log2 up" 7 (Stats.ceil_log2 65);
  Alcotest.(check int) "ceil_div" 4 (Stats.ceil_div 10 3);
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "median odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "median even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.(check string) "pretty" "1,234,567" (Stats.pretty_int 1234567);
  Alcotest.(check string) "pretty negative" "-42,000" (Stats.pretty_int (-42000));
  Alcotest.(check (float 1e-9)) "fit through origin" 2.0
    (Stats.fit_ratio [ (2.0, 1.0); (4.0, 2.0) ])

(* --- Package / Store -------------------------------------------------- *)

let params_for_pkg = Params.make ~m:1024 ~w:4096 ~u:512

let test_package_split () =
  let alloc = Package.allocator () in
  let p = Package.create alloc ~params:params_for_pkg ~level:3 in
  Alcotest.(check int) "size 2^3 phi" (8 * params_for_pkg.Params.phi) p.Package.size;
  let a, b = Package.split alloc p in
  Alcotest.(check int) "levels drop" 2 a.Package.level;
  Alcotest.(check int) "sizes halve" p.Package.size (a.Package.size + b.Package.size);
  Alcotest.(check bool) "fresh identities" true
    (a.Package.id <> b.Package.id && a.Package.id <> p.Package.id);
  Alcotest.check_raises "level 0 cannot split"
    (Invalid_argument "Package.split: cannot split a level-0 package") (fun () ->
      let z = Package.create alloc ~params:params_for_pkg ~level:0 in
      ignore (Package.split alloc z))

let test_store_basics () =
  let alloc = Package.allocator () in
  let s = Store.empty () in
  Alcotest.(check bool) "empty" true (Store.is_empty s);
  let p = Package.create alloc ~params:params_for_pkg ~level:2 in
  Store.add_mobile s p;
  Store.add_static s 3;
  Alcotest.(check int) "permits" (p.Package.size + 3) (Store.permits s);
  Store.take_static s;
  Alcotest.(check int) "static decremented" 2 (Store.static s);
  Store.remove_mobile s p;
  Alcotest.(check (list int)) "no mobiles" []
    (List.map (fun (q : Package.t) -> q.id) (Store.mobiles s));
  Alcotest.check_raises "cannot remove twice"
    (Invalid_argument "Store.remove_mobile: package not hosted here") (fun () ->
      Store.remove_mobile s p)

let test_store_absorb () =
  let alloc = Package.allocator () in
  let parent = Store.empty () and child = Store.empty () in
  let p = Package.create alloc ~params:params_for_pkg ~level:1 in
  Store.add_mobile child p;
  Store.add_static child 2;
  Store.set_rejecting child;
  Store.absorb parent child;
  Alcotest.(check bool) "child emptied" true (Store.is_empty child);
  Alcotest.(check int) "parent got permits" (p.Package.size + 2) (Store.permits parent);
  Alcotest.(check bool) "reject flag carried" true (Store.rejecting parent)

let test_store_filler_lookup () =
  let alloc = Package.allocator () in
  let params = Params.make ~m:100_000 ~w:500 ~u:1000 in
  let s = Store.empty () in
  let p1 = Package.create alloc ~params ~level:1 in
  Store.add_mobile s p1;
  let psi = params.Params.psi in
  (* a level-1 package is a filler for distances in (2 psi, 4 psi] only *)
  Alcotest.(check bool) "not a filler too close" true
    (Store.find_filler s ~params ~distance:psi = None);
  Alcotest.(check bool) "filler in its band" true
    (Store.find_filler s ~params ~distance:(3 * psi) <> None);
  Alcotest.(check bool) "not a filler too far" true
    (Store.find_filler s ~params ~distance:(5 * psi) = None)

(* --- Domain tracker (unit-level) -------------------------------------- *)

let test_domain_tracker_directly () =
  let rng = Rng.create ~seed:14 in
  let tree = Workload.Shape.build rng (Workload.Shape.Path 600) in
  let params = Params.make ~m:100_000 ~w:1200 ~u:1200 in
  let tracker = Domain_tracker.create ~params ~tree () in
  let alloc = Package.allocator () in
  let leaf = List.hd (Dtree.leaves tree) in
  let p = Package.create alloc ~params ~level:1 in
  Domain_tracker.assign tracker p ~requester:leaf ~dist:(Params.landing_distance params 1);
  Alcotest.(check int) "tracked" 1 (Domain_tracker.tracked tracker);
  (match Domain_tracker.check tracker with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* inserting an internal node inside the domain keeps the invariants *)
  let inside =
    Option.get (Dtree.ancestor_at tree leaf (Params.landing_distance params 1 - 1))
  in
  let fresh = Dtree.add_internal tree ~above:inside in
  Domain_tracker.on_add_internal tracker ~new_node:fresh ~child:inside;
  (match Domain_tracker.check tracker with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Domain_tracker.cancel tracker p;
  Alcotest.(check int) "cancelled" 0 (Domain_tracker.tracked tracker)

let suite =
  ( "units",
    [
      Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
      Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
      Alcotest.test_case "rng split" `Quick test_rng_split_independent;
      Alcotest.test_case "rng weighted pick" `Quick test_rng_pick_weighted;
      Alcotest.test_case "rng pick stream identical" `Quick test_rng_pick_stream_identical;
      Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle_permutes;
      Alcotest.test_case "stats helpers" `Quick test_stats;
      Alcotest.test_case "package split" `Quick test_package_split;
      Alcotest.test_case "store basics" `Quick test_store_basics;
      Alcotest.test_case "store absorb" `Quick test_store_absorb;
      Alcotest.test_case "store filler lookup" `Quick test_store_filler_lookup;
      Alcotest.test_case "domain tracker" `Quick test_domain_tracker_directly;
    ] )
