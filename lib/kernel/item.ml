type t = Data of Bp_image.Image.t | Ctl of Bp_token.Token.t

let data img = Data img
let ctl tok = Ctl tok
let is_data = function Data _ -> true | Ctl _ -> false

let words = function
  | Data img -> Bp_image.Image.width img * Bp_image.Image.height img
  | Ctl tok -> Bp_token.Token.words tok

let chunk_exn = function
  | Data img -> img
  | Ctl _ -> invalid_arg "Item.chunk_exn: control token"

let token_exn = function
  | Ctl tok -> tok
  | Data _ -> invalid_arg "Item.token_exn: data chunk"

let pp ppf = function
  | Data img -> Bp_image.Image.pp ppf img
  | Ctl tok -> Bp_token.Token.pp ppf tok
