#!/usr/bin/env bash
# Build vdram and the ledger from source in this checkout, then run the
# ledger; the arguments go to `ledger.exe run`, e.g.
#   bash bench/ledger/run.sh --workload serve_mixed --seed 1 --seconds 10 --trace 0
# Everything is built and written under the checkout's _build/.
set -euo pipefail
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
dune build --root . ./bin/vdram.exe ./bench/ledger/ledger.exe ./bench/ledger/noop.exe \
  ./bench/ledger/refwork.exe >&2
# Not exec: the ledger reads the peak memory of its children from
# getrusage, which would otherwise include this shell's dune build.
./_build/default/bench/ledger/ledger.exe run "$@"
