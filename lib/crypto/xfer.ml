type t = { mutable a_to_b : int; mutable b_to_a : int }

let create () = { a_to_b = 0; b_to_a = 0 }

let add_a_to_b t n = t.a_to_b <- t.a_to_b + n
let add_b_to_a t n = t.b_to_a <- t.b_to_a + n

let a_to_b t = t.a_to_b
let b_to_a t = t.b_to_a
let total t = t.a_to_b + t.b_to_a
