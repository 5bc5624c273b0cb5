(* The process-spawn reference (see speed.ml): an executable that starts
   and exits, linking nothing of vdram. *)
