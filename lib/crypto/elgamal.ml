type public_key = Group.elt
type secret_key = Group.exponent

type ciphertext = { c1 : Group.elt; c2 : Group.elt }

let keygen prg grp =
  let x = Group.random_exponent prg grp in
  (x, Group.pow_g grp x)

let encrypt prg grp h m =
  let y = Group.random_exponent prg grp in
  { c1 = Group.pow_g grp y; c2 = Group.mul grp m (Group.pow grp h y) }

let decrypt grp x { c1; c2 } =
  let s = Group.pow grp c1 x in
  Group.mul grp c2 (Group.inv grp s)

let mul grp a b = { c1 = Group.mul grp a.c1 b.c1; c2 = Group.mul grp a.c2 b.c2 }

let rerandomize prg grp h c =
  let y = Group.random_exponent prg grp in
  { c1 = Group.mul grp c.c1 (Group.pow_g grp y);
    c2 = Group.mul grp c.c2 (Group.pow grp h y) }

