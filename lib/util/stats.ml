let log2 x = log x /. log 2.0

let ilog2 n =
  if n < 1 then invalid_arg "Stats.ilog2";
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

let ceil_log2 n =
  if n < 1 then invalid_arg "Stats.ceil_log2";
  let k = ilog2 n in
  if 1 lsl k = n then k else k + 1

let ceil_div a b = (a + b - 1) / b

let mean = function
  | [] -> nan
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let median l =
  match List.sort Float.compare l with
  | [] -> nan
  | sorted ->
      let n = List.length sorted in
      if n mod 2 = 1 then List.nth sorted (n / 2)
      else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.0

let fit_ratio pairs =
  (* Least squares through the origin: c = sum(m*b) / sum(b*b). *)
  let num = List.fold_left (fun acc (m, b) -> acc +. (m *. b)) 0.0 pairs in
  let den = List.fold_left (fun acc (_, b) -> acc +. (b *. b)) 0.0 pairs in
  if den = 0.0 then nan else num /. den

let pretty_int n =
  let s = string_of_int (abs n) in
  let len = String.length s in
  let buf = Buffer.create (len + (len / 3)) in
  if n < 0 then Buffer.add_char buf '-';
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf
