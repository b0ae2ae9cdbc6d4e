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
  Alcotest.(check int) "took it" p.Package.id (Store.take s 2).Package.id;
  Alcotest.(check (list int)) "no mobiles" []
    (List.map (fun (q : Package.t) -> q.id) (Store.mobiles s));
  Alcotest.(check int) "no level hosted" 0 (Store.mask s);
  Alcotest.check_raises "cannot take twice"
    (Invalid_argument "Store.take: no mobile package of this level") (fun () ->
      ignore (Store.take s 2))

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
  let filler distance =
    let j = Params.filler_level_index params distance in
    j >= 0 && Store.hosts s j
  in
  (* a level-1 package is a filler for distances in (2 psi, 4 psi] only *)
  Alcotest.(check bool) "not a filler too close" false (filler psi);
  Alcotest.(check bool) "filler in its band" true (filler (3 * psi));
  Alcotest.(check bool) "not a filler too far" false (filler (5 * psi));
  Alcotest.(check int) "the filler's package" p1.Package.id
    (Store.take s (Params.filler_level_index params (3 * psi))).Package.id;
  Alcotest.(check bool) "no longer a filler" false (filler (3 * psi))

(* Store against a plain model of its contract: the hosted packages newest
   first (a child's ahead after [absorb]), a take picks the first package of
   the level in that order, and the mask is the set of levels in the list. *)
type store_op =
  | Add of int * int  (* store, level *)
  | Take of int * int
  | Absorb of int  (* the other store absorbs this one *)
  | Add_static of int * int
  | Take_static of int
  | Reject of int

let pp_store_op = function
  | Add (i, j) -> Printf.sprintf "add %d L%d" i j
  | Take (i, j) -> Printf.sprintf "take %d L%d" i j
  | Absorb i -> Printf.sprintf "absorb %d" i
  | Add_static (i, n) -> Printf.sprintf "add_static %d %d" i n
  | Take_static i -> Printf.sprintf "take_static %d" i
  | Reject i -> Printf.sprintf "reject %d" i

let gen_store_op =
  QCheck2.Gen.(
    let i = int_range 0 1 and level = int_range 0 5 in
    frequency
      [
        (4, map2 (fun i j -> Add (i, j)) i level);
        (4, map2 (fun i j -> Take (i, j)) i level);
        (1, map (fun i -> Absorb i) i);
        (2, map2 (fun i n -> Add_static (i, n)) i (int_range 0 3));
        (2, map (fun i -> Take_static i) i);
        (1, map (fun i -> Reject i) i);
      ])

type store_model = { mutable pkgs : Package.t list; mutable static : int; mutable reject : bool }

let rec model_first j = function
  | [] -> None
  | (p : Package.t) :: rest -> if p.level = j then Some p else model_first j rest

let rec model_remove (p : Package.t) = function
  | [] -> []
  | (q : Package.t) :: rest -> if q.id = p.id then rest else q :: model_remove p rest

let prop_store_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"store agrees with a list model"
       ~print:(fun ops -> String.concat "; " (List.map pp_store_op ops))
       QCheck2.Gen.(list_size (int_range 0 60) gen_store_op)
       (fun ops ->
         let alloc = Package.allocator () in
         let stores = [| Store.empty (); Store.empty () |] in
         let models = Array.init 2 (fun _ -> { pkgs = []; static = 0; reject = false }) in
         let agrees i =
           let s = stores.(i) and m = models.(i) in
           Store.mask s
           = List.fold_left (fun acc (p : Package.t) -> acc lor (1 lsl p.level)) 0 m.pkgs
           && List.map (fun (p : Package.t) -> p.id) (Store.mobiles s)
              = List.map (fun (p : Package.t) -> p.id) m.pkgs
           && Store.permits s
              = List.fold_left (fun acc (p : Package.t) -> acc + p.size) m.static m.pkgs
           && Store.static s = m.static
           && Store.rejecting s = m.reject
           && Store.is_empty s = (m.pkgs = [] && m.static = 0 && not m.reject)
         in
         let step = function
           | Add (i, j) ->
               let p = Package.create alloc ~params:params_for_pkg ~level:j in
               Store.add_mobile stores.(i) p;
               models.(i).pkgs <- p :: models.(i).pkgs;
               true
           | Take (i, j) -> (
               let hosts = Store.hosts stores.(i) j in
               match model_first j models.(i).pkgs with
               | None -> (
                   (not hosts)
                   &&
                   match Store.take stores.(i) j with
                   | _ -> false
                   | exception Invalid_argument _ -> true)
               | Some want ->
                   models.(i).pkgs <- model_remove want models.(i).pkgs;
                   hosts && (Store.take stores.(i) j).id = want.id)
           | Absorb i ->
               let child = models.(i) and parent = models.(1 - i) in
               Store.absorb stores.(1 - i) stores.(i);
               parent.pkgs <- child.pkgs @ parent.pkgs;
               parent.static <- parent.static + child.static;
               parent.reject <- parent.reject || child.reject;
               child.pkgs <- [];
               child.static <- 0;
               child.reject <- false;
               true
           | Add_static (i, n) ->
               Store.add_static stores.(i) n;
               models.(i).static <- models.(i).static + n;
               true
           | Take_static i -> (
               if models.(i).static = 0 then
                 match Store.take_static stores.(i) with
                 | () -> false
                 | exception Invalid_argument _ -> true
               else begin
                 Store.take_static stores.(i);
                 models.(i).static <- models.(i).static - 1;
                 true
               end)
           | Reject i ->
               Store.set_rejecting stores.(i);
               models.(i).reject <- true;
               true
         in
         List.for_all (fun op -> step op && agrees 0 && agrees 1) ops))

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
      prop_store_model;
      Alcotest.test_case "domain tracker" `Quick test_domain_tracker_directly;
    ] )
