(** The bytewise CRC-32 (IEEE 802.3, reflected), kept as the model the
    WAL's slicing-by-8 [Wal.crc32] is pinned against: one table step
    per byte, trivially the textbook loop. *)

val crc32 : string -> int
