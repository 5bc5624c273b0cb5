(* Content fingerprints: one marshal + digest per value, cheap keys
   everywhere downstream. *)

(* The digest is the 16-byte MD5 of the marshalled value, or of a
   combined key's part digests; the witness retains what was digested
   so a digest collision can never alias two distinct keys (equality
   falls back to comparing the marshalled bytes, which is a memcmp).
   A combined key keeps its parts instead of a copy of their bytes, so
   keys built from shared parts share their witnesses too.
   [Marshal.No_sharing] makes the byte representation a pure function
   of the structure, so structurally equal immutable values always
   fingerprint identically. *)
type t = {
  digest : string;
  witness : witness;
}

and witness =
  | Marshalled of string
  | Parts of t array
  | Trusted

(* Bump when the marshalling scheme or the key projections change:
   stamps the on-disk store so entries written by an older scheme are
   discarded instead of misread. *)
let scheme_version = "fp2"

let of_value v =
  let bytes = Marshal.to_string v [ Marshal.No_sharing ] in
  { digest = Digest.string bytes; witness = Marshalled bytes }

let combine = function
  | [||] -> invalid_arg "Fingerprint.combine: no parts"
  | [| fp |] -> fp
  | parts ->
    let buf = Bytes.create (16 * Array.length parts) in
    for i = 0 to Array.length parts - 1 do
      Bytes.blit_string parts.(i).digest 0 buf (16 * i) 16
    done;
    { digest = Digest.bytes buf; witness = Parts parts }

(* Entries restored from the persistent store carry no witness (the
   bytes are not worth the disk space); for them the 128-bit digest is
   the identity.  Two in-memory keys always carry witnesses and get
   the full structural check. *)
let trusted fp = { fp with witness = Trusted }

let rec equal a b =
  a == b
  || String.equal a.digest b.digest
     &&
     match (a.witness, b.witness) with
     | Trusted, _ | _, Trusted -> true
     | Marshalled x, Marshalled y -> String.equal x y
     | Parts xs, Parts ys ->
       Array.length xs = Array.length ys && Array.for_all2 equal xs ys
     | Marshalled _, Parts _ | Parts _, Marshalled _ -> false

let hash fp = Int64.to_int (String.get_int64_le fp.digest 0) land max_int

let hex fp = Digest.to_hex fp.digest

let pp ppf fp = Format.pp_print_string ppf (hex fp)
