(** SHA-256 (FIPS 180-4), implemented from scratch.

    The container has no crypto library, so we provide our own digest for
    the hash-based PRG, the random-oracle calls in the oblivious-transfer
    protocols, and commitment-style fingerprints in tests. Verified against
    the FIPS test vectors in the test suite. *)

val digest : bytes -> bytes
(** 32-byte digest. *)

val hex_digest : string -> string
(** Digest of a string, hex-encoded (64 characters). *)

val hmac : key:bytes -> bytes -> bytes
(** HMAC-SHA256 (RFC 2104). *)
