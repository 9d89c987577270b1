(** CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the per-frame
    integrity check of the runtime transport ({!Dstress_runtime.Transport}).

    A CRC detects wire corruption (bit flips, truncation, framing bugs),
    not adversarial tampering; the protocol-level integrity of transfers
    stays with the SHA-256 MACs in [lib/transfer]. The implementation is
    the standard 256-entry table driven byte loop; values match the
    ubiquitous zlib/PNG/Ethernet convention (["123456789"] ->
    [0xCBF43926]). *)

val digest : bytes -> int32
(** CRC-32 of the whole buffer. *)
