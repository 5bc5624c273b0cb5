(** Content fingerprints for stage-cache keys.

    A fingerprint is the MD5 digest of a value's marshalled bytes
    ([Marshal.No_sharing], so the bytes are a pure function of the
    structure), or of the part digests of a composite key.  It is
    computed once per value — the engine keeps one per configuration
    field, so a configuration that differs from the last one in a
    single field marshals only that field — and then compared and
    hashed in O(1)-ish time wherever the stage caches need a key.
    This replaces per-lookup deep hashing
    ([Hashtbl.hash_param 256 256]) and deep structural equality with
    one walk per value plus cheap digest comparisons per lookup.

    The marshalled bytes are retained as a {e witness} (a composite
    key retains its parts, down to one string per marshalled value):
    on the (cryptographically negligible, but possible) event of a
    digest collision, {!equal} falls back to comparing the bytes, so
    two distinct keys can never alias a cache entry.  Entries restored
    from the persistent store drop their witness ({!trusted}) and are
    identified by digest alone.

    Only marshal plain data: every key the engine fingerprints
    (configuration fields, patterns and their projections) is
    closure-free and immutable. *)

type t

val of_value : 'a -> t
(** Fingerprint a (plain-data) value: one [Marshal] walk plus one
    digest.  Structurally equal values yield equal fingerprints. *)

val combine : t array -> t
(** Fingerprint of a composite key (e.g. configuration × pattern)
    from its parts' fingerprints, without re-marshalling: the digest
    of their digests.  The array is kept as the witness, so it must
    not be mutated afterwards.  A single part is returned as is;
    raises [Invalid_argument] on the empty array. *)

val trusted : t -> t
(** The same fingerprint with its witness dropped: {!equal} then
    trusts the 128-bit digest.  Used for entries restored from the
    persistent store, where retaining every key's bytes would defeat
    the point of the cache. *)

val equal : t -> t -> bool
(** Digest equality, with a byte-for-byte witness comparison as the
    collision fallback whenever both sides carry witnesses. *)

val hash : t -> int
(** The first 64 digest bits, folded to a non-negative [int]; used to
    pick a cache shard and a hash bucket. *)

val hex : t -> string
(** The digest, hex-encoded (store file names, diagnostics). *)

val scheme_version : string
(** Stamped into the persistent store: entries fingerprinted under a
    different scheme are discarded on load. *)

val pp : Format.formatter -> t -> unit
