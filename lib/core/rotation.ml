type ('c, 'r) t = {
  net : Net.t;
  name : string;
  drained : 'c -> bool;
  next : 'c -> unit;
  route : 'c -> 'r -> unit;
  held : 'r Queue.t;  (* requests parked for the next epoch *)
  mutable rotating : bool;
  mutable epochs : int;
}

let create ~net ~name ~drained ~next ~route =
  { net; name; drained; next; route; held = Queue.create (); rotating = false; epochs = 0 }

let rotate e c =
  e.epochs <- e.epochs + 1;
  (match Net.sink e.net with
  | None -> ()
  | Some s ->
      Telemetry.Sink.event s ~time:(Net.now e.net)
        (Telemetry.Event.Epoch { ctrl = e.name; epoch = e.epochs; n = Dtree.size (Net.tree e.net) }));
  e.next c;
  e.rotating <- false;
  let parked = Queue.create () in
  Queue.transfer e.held parked;
  Queue.iter (fun r -> Net.schedule e.net ~delay:1 (fun () -> e.route c r)) parked

let rec await_drain e c =
  if e.drained c then rotate e c else Net.schedule e.net ~delay:2 (fun () -> await_drain e c)

let park e c r =
  Queue.push r e.held;
  if not e.rotating then begin
    e.rotating <- true;
    await_drain e c
  end

let rotating e = e.rotating
let epochs e = e.epochs
