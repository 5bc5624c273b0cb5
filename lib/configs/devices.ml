(* Named device configurations. *)

module Node = Vdram_tech.Node
module Config = Vdram_core.Config
include Parts

let sdr_128m =
  Config.commodity ~name:"128M SDR x16 170nm" ~node:Node.N170
    ~density_bits:(mb 128.0) ()

let ddr_256m =
  Config.commodity ~name:"256M DDR x16 110nm" ~node:Node.N110
    ~density_bits:(mb 256.0) ()

let ddr3_2g =
  Config.commodity ~name:"2G DDR3 x16 55nm" ~node:Node.N55
    ~density_bits:(mb 2048.0) ()

let ddr4_4g =
  Config.commodity ~name:"4G DDR4 x16 31nm" ~node:Node.N31
    ~density_bits:(mb 4096.0) ()

let ddr5_16g =
  Config.commodity ~name:"16G DDR5 x16 18nm" ~node:Node.N18
    ~density_bits:(mb 16384.0) ()

let table3_devices = [ sdr_128m; ddr3_2g; ddr5_16g ]
