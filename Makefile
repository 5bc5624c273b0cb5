.PHONY: all build test check check-model lint advise bench chaos fuzz serve-smoke examples clean doc export

all: build

build:
	dune build @all

test:
	dune runtest

lint: build
	dune exec bin/vdram.exe -- lint --deny-warnings examples/*.dram

# Static dataflow advice (V10xx): slack, utilization, idle windows and
# the certified energy floor of every shipped loop.  Not gated — the
# inefficient example exists precisely to carry advice.
advise: build
	dune exec bin/vdram.exe -- advise examples/*.dram

check: test lint

# Abstract interpretation over the shipped descriptions: certified
# bounds (cross-checked against 500 concrete samples each), per-lens
# monotonicity, and whole-sweep legality across the roadmap.
check-model: build
	dune exec bin/vdram.exe -- check --samples 500 examples/*.dram

bench:
	dune exec bench/main.exe

# Supervised runtime under deterministic fault injection: every seed
# must exit 3 (partial results) with a version-1 fail-log holding only
# injected mix-stage failures, and a run with injection off must exit
# 0 with an empty failure list.  CI's chaos job runs this target.
chaos: build
	@for seed in 7 11 42; do \
	  log=chaos_$$seed.json; code=0; \
	  VDRAM_FAULTS="seed=$$seed,rate=0.02,raise=mix" \
	    dune exec bin/vdram.exe -- corners --node 55nm --samples 400 \
	      --jobs 2 --keep-going --fail-log $$log || code=$$?; \
	  [ "$$code" -eq 3 ] || { echo "seed $$seed: expected exit 3 (partial), got $$code"; exit 1; }; \
	  grep -q '"version": 1' $$log || { echo "seed $$seed: not a version 1 fail-log"; exit 1; }; \
	  grep -q '"stage": "mix"' $$log || { echo "seed $$seed: no mix-stage failure"; exit 1; }; \
	  grep -q '"injected": true' $$log || { echo "seed $$seed: no injected failures"; exit 1; }; \
	  ! grep -q '"injected": false' $$log || { echo "seed $$seed: non-injected failure leaked into the log"; exit 1; }; \
	  echo "chaos seed $$seed: $$(grep -c '"stage": "mix"' $$log) injected failure(s), exit 3"; \
	done
	@code=0; \
	VDRAM_FAULTS= dune exec bin/vdram.exe -- corners --node 55nm \
	  --samples 400 --jobs 2 --keep-going --fail-log chaos_clean.json || code=$$?; \
	[ "$$code" -eq 0 ] || { echo "clean run: expected exit 0, got $$code"; exit 1; }; \
	grep -q '"failures": \[\]' chaos_clean.json || { echo "clean run: failures recorded"; exit 1; }; \
	echo "chaos clean run: no failures, exit 0"

# Mutation fuzzing of the shipped descriptions (tools/mutate.ml): one
# number per draw set to a hostile value, then elaboration, `power` and
# `lint` in process.  `dune runtest` runs 600 draws at seed 2; this
# sweeps five more seeds at ten times the draws.  CI runs it.
fuzz:
	dune build ./tools/mutate.exe
	@for seed in 3 5 7 11 13; do \
	  ./_build/default/tools/mutate.exe --draws 6000 --seed $$seed \
	    examples/*.dram || exit 1; \
	done

# Serve daemon end-to-end: boot the real binary under fault
# injection, drive concurrent mixed traffic (coalescing and
# injected-only failures are counter-verified), then SIGTERM it and
# assert a clean drain with the store flushed.  See doc/SERVE.md.
serve-smoke: build
	dune exec tools/serve_smoke.exe -- _build/default/bin/vdram.exe

examples:
	dune exec examples/quickstart.exe
	dune exec examples/datasheet_check.exe
	dune exec examples/server_power.exe
	dune exec examples/design_explorer.exe
	dune exec examples/future_dram.exe
	dune exec examples/mobile_standby.exe
	dune exec examples/dimm_power.exe

export:
	dune exec bin/vdram.exe -- export --outdir .

doc:
	dune build @doc

clean:
	dune clean
