(** Spanned, coded diagnostics with text and JSON renderers.

    A diagnostic is a severity, a stable [V####] code (see {!Code}), a
    human message, an optional source span, optional related notes and
    an optional fix-it hint.  The text renderer produces a
    compiler-style report (location, severity, code, message, source
    excerpt with carets); the JSON renderer produces one object per
    diagnostic for machine consumption. *)

type severity = Code.severity = Error | Warning

type t = {
  code : string;
  severity : severity;
  span : Span.t;
  message : string;
  notes : string list;    (** related remarks, rendered as [= note:] *)
  help : string option;   (** fix-it hint, rendered as [= help:] *)
  fixes : Fix.t list;     (** machine-applicable edits (see {!Fix}) *)
}

val v :
  ?span:Span.t -> ?notes:string list -> ?help:string -> ?fixes:Fix.t list ->
  severity:severity -> code:string -> string -> t

val errorf :
  ?span:Span.t -> ?notes:string list -> ?help:string -> ?fixes:Fix.t list ->
  code:string -> ('a, unit, string, t) format4 -> 'a

val warningf :
  ?span:Span.t -> ?notes:string list -> ?help:string -> ?fixes:Fix.t list ->
  code:string -> ('a, unit, string, t) format4 -> 'a

val severity_name : severity -> string
(** ["error"] or ["warning"]. *)

val is_error : t -> bool

val count : severity -> t list -> int

val compare_source : t -> t -> int
(** Source order (by span); spanless diagnostics sort last. *)

val pp : Format.formatter -> t -> unit
(** One line: ["file:9:29: error[V0301]: message"]. *)

val pp_rich : ?source:string array -> Format.formatter -> t -> unit
(** Multi-line report.  When [source] (the file split into lines) is
    given and the span has columns, the offending line is echoed with
    a caret underline; notes and help render as trailing [= note:] /
    [= help:] lines. *)

val to_json : t -> Vdram_json.Json.t
(** One JSON object: ["severity"], ["code"] and ["message"], then
    ["file"], ["line"], ["col"], ["end_col"], ["notes"], ["help"] and
    ["fixes"] when present. *)
