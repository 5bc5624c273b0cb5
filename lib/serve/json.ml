(* [Vdram_json.Json] under its old name: the bench ledger names
   [Vdram_serve.Json].  Nothing else here uses it. *)
include Vdram_json.Json
