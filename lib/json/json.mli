(** Minimal JSON: the one parser and printer behind every JSON document
    vdram reads or writes — serve frames, the lint/check/advise
    envelope, SARIF, the [--certify] certificate and the [--fail-log]
    report.

    A recursive-descent parser with a depth limit (a hostile frame
    cannot blow the stack), a compact single-line printer (never emits
    a newline, so a printed value is always exactly one serve frame)
    and a one-member-per-line printer for files read with line tools.
    Both printers write 0x08, 0x0C, 0x0D as [\b], [\f], [\r] and
    other control bytes as [\u00XX].  No dependency beyond the
    stdlib, so every library can sit above it. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Lit of string
      (** A number the caller has already spelled ([%.17g], [%.6e],
          ...), printed verbatim.  {!parse} never produces it. *)
  | List of t list
  | Obj of (string * t) list

val parse : ?max_depth:int -> string -> (t, string) result
(** Parse one complete JSON value; trailing garbage after the value is
    an error.  [max_depth] (default 64) bounds nesting.  Strings
    decode the standard escapes including [\uXXXX] (surrogate pairs
    re-encoded as UTF-8). *)

val to_string : t -> string
(** Compact rendering on a single line.  Integral floats print without
    a fractional part; non-finite numbers print as [null] (JSON has no
    spelling for them). *)

val to_lines : t -> string
(** The same values laid out for line tools: an object's members one
    per line, a member's non-empty list one element per line indented
    four spaces, deeper values inline with [", "] and [": "], and a
    final newline.  The [--fail-log] layout. *)

(** {1 Accessors}

    All return [None] on a type mismatch — protocol decoding treats a
    wrongly-typed field exactly like a missing one. *)

val mem : string -> t -> t option
(** Object member lookup; [None] on non-objects. *)

val str : t -> string option
val num : t -> float option

val int_ : t -> int option
(** [num] that also requires the value to be integral. *)

val bool_ : t -> bool option
val list_ : t -> t list option
val obj : t -> (string * t) list option
