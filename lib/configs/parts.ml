(* Parameterised verification parts.  Nothing here is built at module
   initialisation, so a program that only needs these builders does
   not pay for the named devices of {!Devices}. *)

module Node = Vdram_tech.Node
module Config = Vdram_core.Config

let mb n = n *. (2.0 ** 20.0)

let page_for_width io_width =
  (* Commodity parts: x16 uses a 2 KB page, x4/x8 a 1 KB page. *)
  if io_width >= 16 then 16384 else 8192

let ddr2_1g ?(io_width = 16) ?(datarate = 800e6) ~node () =
  Config.commodity
    ~name:
      (Printf.sprintf "1G DDR2 x%d-%.0f %s" io_width (datarate /. 1e6)
         (Node.name node))
    ~standard:Node.Ddr2 ~node ~density_bits:(mb 1024.0) ~io_width ~datarate
    ~page_bits:(page_for_width io_width) ~banks:8 ()

let ddr3_1g ?(io_width = 16) ?(datarate = 1066e6) ~node () =
  Config.commodity
    ~name:
      (Printf.sprintf "1G DDR3 x%d-%.0f %s" io_width (datarate /. 1e6)
         (Node.name node))
    ~standard:Node.Ddr3 ~node ~density_bits:(mb 1024.0) ~io_width ~datarate
    ~page_bits:(page_for_width io_width) ~banks:8 ()
