let used () = ()
let aliased () = ()
let tested () = ()
let uncalled () = ()
