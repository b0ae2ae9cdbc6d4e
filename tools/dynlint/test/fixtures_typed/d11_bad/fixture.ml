(* Every annotated function here allocates in exactly one way, one
   function per allocation kind, in source order; the suite asserts one
   D11 finding apiece and spot-checks the messages. The unannotated
   helpers are deliberate: [chased] shows the same-unit chase surfacing a
   callee's allocation at the annotated call site. *)

type point = { px : int; py : int }

let helper x = [ x ]
let add2 a b = a + b

let closure n =
  let step () = n + 1 in
  step ()
  [@@dynlint.zero_alloc]

let pair a b = (a, b) [@@dynlint.zero_alloc]
let boxed a b = a +. b [@@dynlint.zero_alloc]
let partial a = add2 a [@@dynlint.zero_alloc]

let escaped_ref n =
  let r = ref n in
  incr r;
  r
  [@@dynlint.zero_alloc]

let record a b = { px = a; py = b } [@@dynlint.zero_alloc]
let literal a = [| a; a |] [@@dynlint.zero_alloc]
let poly a b = compare a b [@@dynlint.zero_alloc]
let cons x = Some x [@@dynlint.zero_alloc]
let chased x = helper x [@@dynlint.zero_alloc]

(* [=] on a type variable cannot be specialized: it calls caml_equal *)
let poly_op (a : 'a array) x = a.(0) = x [@@dynlint.zero_alloc]

(* nor on a locally abstract type, which the compiler knows nothing of *)
let poly_abstract (type a) (a : a array) (x : a) = a.(0) = x [@@dynlint.zero_alloc]
