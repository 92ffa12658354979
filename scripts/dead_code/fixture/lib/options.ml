let never ?(x = 0) () = x
let tilde ?(x = 0) () = x
let forwarded ?(x = 0) () = x
let stored ?(x = 0) () = x
let partial ?(x = 0) ~a () = x + a
let tested ?(x = 0) () = x
