module Cache = struct
  type t = unit

  let shared = ()
  let clear () = ()
end
