let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let minimum = function
  | [] -> invalid_arg "Stats.minimum: empty list"
  | x :: xs -> List.fold_left min x xs

let maximum = function
  | [] -> invalid_arg "Stats.maximum: empty list"
  | x :: xs -> List.fold_left max x xs

let clamp ~lo ~hi x = if x < lo then lo else if x > hi then hi else x

let ceil_div a b =
  if b <= 0 then invalid_arg "Stats.ceil_div: divisor must be positive";
  if a < 0 then invalid_arg "Stats.ceil_div: dividend must be non-negative";
  (a + b - 1) / b

let pct x = Printf.sprintf "%.1f%%" (100. *. x)
