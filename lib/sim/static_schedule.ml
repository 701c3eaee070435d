type t = { recorded_firings : int }

let empty = { recorded_firings = 0 }
