let protocol_name = "size-est"
let tag_universe = Controller.Dist.tag_universe ~name:protocol_name

type t = { beta : float; engine : Epochs.Dist.t; mutable changes : int }

(* floor(alpha n), but at least 1 so that epochs always progress. For
   beta >= 2 this keeps the approximation exact at every size (growth to
   n + max(1, floor(alpha n)) <= beta n even at n = 1); for beta < 2 the
   guarantee needs n >= beta / (beta - 1), as in the paper's asymptotics. *)
let alpha_budget beta n =
  let m = max 1 (int_of_float ((1.0 -. (1.0 /. beta)) *. float_of_int n)) in
  (m, max 1 (m / 2))

let create ?(beta = 2.0) ~net () =
  if beta <= 1.0 then invalid_arg "Size_estimation.create: beta must exceed 1";
  let boundary e =
    let n = Epochs.Dist.size e in
    (* broadcast + upcast computing and disseminating N_{i+1}, plus the
       whiteboard reset *)
    if Epochs.Dist.epochs e > 0 then Epochs.Dist.charge e (3 * n);
    match Net.sink net with
    | None -> ()
    | Some s ->
        Telemetry.Sink.event s ~time:(Net.now net)
          (Telemetry.Event.Estimate
             { ctrl = protocol_name; node = Dtree.root (Net.tree net); value = n; truth = n })
  in
  {
    beta;
    engine =
      Epochs.Dist.create ~name:protocol_name ~budget:(alpha_budget beta) ~boundary ~net ();
    changes = 0;
  }

let submit t op ~k =
  Epochs.Dist.submit t.engine op ~k:(fun info ->
      if info <> None then t.changes <- t.changes + 1;
      k ())

let estimate t _v = Epochs.Dist.size t.engine
let beta t = t.beta
let epochs t = Epochs.Dist.epochs t.engine
let overhead_messages t = Epochs.Dist.overhead t.engine
let changes t = t.changes
