# Tier-1 verification: everything `make verify` runs must stay green.
#
# The doc and formatting gates only run when the corresponding tool is
# installed (odoc / ocamlformat are not part of the minimal toolchain);
# when present they are part of the tier-1 bar.

.PHONY: all build test doc doc-strict fmt-check inline-check verify fuzz bench \
	bench-smoke bench-determinism serve-smoke cluster-smoke chaos-smoke \
	perf-smoke tails-smoke gen-smoke experiment-smoke trace-smoke clean

# Number of random configurations `make fuzz` tries.
FUZZ_COUNT ?= 100

# Host domains the benchmark matrix fans its cells over.
JOBS ?= 1

# Every generated artefact (bench JSON, traces, smoke outputs) lands
# here, keeping the repo root clean; the directory is gitignored.
ART ?= _artifacts

all: build

build:
	dune build

test:
	dune runtest

# Build the API docs if odoc is available; no-op (with a note) otherwise.
doc:
	@if command -v odoc >/dev/null 2>&1; then \
	  dune build @doc; \
	else \
	  echo "odoc not installed — skipping dune build @doc"; \
	fi

# Like doc, but odoc warnings (unresolved references, bad markup) in
# the cluster layer are errors — the lint bar for the newest .mli
# surface, tightened layer by layer as older docs are cleaned up.
doc-strict:
	@if command -v odoc >/dev/null 2>&1; then \
	  dune build @doc 2>&1 | tee /tmp/odoc.log; \
	  if grep -i "warning" /tmp/odoc.log | grep -q "cluster"; then \
	    echo "doc-strict: odoc warnings in lib/cluster are errors"; \
	    exit 1; \
	  fi; \
	else \
	  echo "odoc not installed — skipping doc-strict"; \
	fi

# Check formatting if ocamlformat is available; no-op otherwise.
fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not installed — skipping dune fmt --check"; \
	fi

# Cross-module inlining gate (docs/ARCHITECTURE.md, "The hot path"):
# dune-workspace selects the release profile, whose library modules
# compile without -opaque, so the hot path inlines across libraries.
# Fail, naming the unit, if a hot-path unit's compile rule passes
# -opaque (as under DUNE_PROFILE=dev) or if it has no ocamlopt rule.
inline-check:
	@for u in lib/core/.cgc_core.objs/native/cgc_core__Tracer.cmx \
	    lib/core/.cgc_core.objs/native/cgc_core__Sweep.cmx \
	    lib/core/.cgc_core.objs/native/cgc_core__Card_clean.cmx \
	    lib/smp/.cgc_smp.objs/native/cgc_smp__Machine.cmx \
	    lib/sim/.cgc_sim.objs/native/cgc_sim__Sched.cmx \
	    lib/heap/.cgc_heap.objs/native/cgc_heap__Heap.cmx \
	    lib/heap/.cgc_heap.objs/native/cgc_heap__Arena.cmx \
	    lib/heap/.cgc_heap.objs/native/cgc_heap__Card_table.cmx \
	    lib/packets/.cgc_packets.objs/native/cgc_packets__Pool.cmx \
	    lib/util/.cgc_util.objs/native/cgc_util__Bitvec.cmx \
	    lib/util/.cgc_util.objs/native/cgc_util__Clock.cmx; do \
	  rule=$$(dune rules $$u) || exit 1; \
	  case "$$rule" in \
	    *ocamlopt*) ;; \
	    *) echo "inline-check: no ocamlopt rule for $$u"; exit 1 ;; \
	  esac; \
	  if printf '%s\n' "$$rule" | grep -q -- '-opaque'; then \
	    echo "inline-check: $$u is compiled with -opaque, so the hot path cannot inline across libraries; build in the release profile (dune-workspace), not --profile dev"; \
	    exit 1; \
	  fi; \
	done
	@echo "inline check OK: hot-path units compile without -opaque"

verify: inline-check build test doc fmt-check

# Longer-running configuration fuzz (random collector configs + fault
# scenarios under the heap verifier).  On failure QCheck prints the
# full failing configuration including its seed, so the run can be
# replayed deterministically.
fuzz: build
	FUZZ_COUNT=$(FUZZ_COUNT) dune exec test/test_fuzz.exe

# Full benchmark matrix (workloads x thread counts x tracing rates,
# plus serve and sharded-cluster cells), every VM cell traced and
# profiled.  Writes BENCH_PR10.json (schema cgcsim-bench-v1) plus a
# Chrome trace of cell 0; fails if any cell dropped trace events to
# ring overflow.  JOBS=N runs the cells on N OCaml domains; the JSON
# and the trace are byte-identical at every N.
bench: build
	mkdir -p $(ART)
	dune exec bench/main.exe -- matrix --jobs $(JOBS) \
	  --out $(ART)/BENCH_PR10.json --trace-out $(ART)/bench-cell0.trace.json

# Shrunk matrix for CI (<60 s, matrix --fast): one SPECjbb cell, one
# pBOB cell, serve cells (cgc and gen) and one cluster cell, then the
# offline analyzer re-reads the emitted trace and fails on ring drops or
# a schema mismatch.
bench-smoke: build
	mkdir -p $(ART)
	dune exec bench/main.exe -- matrix --fast --jobs $(JOBS) \
	  --out $(ART)/BENCH_PR10.json --trace-out $(ART)/bench-cell0.trace.json
	dune exec bin/cgcsim.exe -- analyze \
	  --trace $(ART)/bench-cell0.trace.json --fail-on-drops

# Run the smoke matrix twice — serial and on 2 domains — and fail if
# the simulated results differ anywhere: the JSON documents and the
# cell-0 traces must be byte-identical.
bench-determinism: build
	mkdir -p $(ART)
	dune exec bench/main.exe -- matrix --fast \
	  --out $(ART)/bench-serial.json --trace-out $(ART)/bench-serial.trace.json
	dune exec bench/main.exe -- matrix --fast --jobs 2 \
	  --out $(ART)/bench-par.json --trace-out $(ART)/bench-par.trace.json
	cmp $(ART)/bench-serial.json $(ART)/bench-par.json
	cmp $(ART)/bench-serial.trace.json $(ART)/bench-par.trace.json
	@echo "bench determinism OK: serial and --jobs 2 agree"

# Short open-loop server run under both collectors, with determinism
# checks: two same-seed serve runs must produce byte-identical reports
# and traces, and an overloaded run with an SLO must exit 6.
serve-smoke: build
	mkdir -p $(ART)
	dune exec bin/cgcsim.exe -- serve -c cgc --rate 6000 --ms 600 \
	  --heap-mb 16 --seed 1 --json $(ART)/serve-a.json \
	  --trace-out $(ART)/serve-a.trace.json
	dune exec bin/cgcsim.exe -- serve -c cgc --rate 6000 --ms 600 \
	  --heap-mb 16 --seed 1 --json $(ART)/serve-b.json \
	  --trace-out $(ART)/serve-b.trace.json
	cmp $(ART)/serve-a.json $(ART)/serve-b.json
	cmp $(ART)/serve-a.trace.json $(ART)/serve-b.trace.json
	dune exec bin/cgcsim.exe -- serve -c stw --rate 6000 --ms 600 \
	  --heap-mb 16 --seed 1 --verify > /dev/null
	dune exec bin/cgcsim.exe -- analyze \
	  --trace $(ART)/serve-a.trace.json --fail-on-drops > /dev/null
	@dune exec bin/cgcsim.exe -- serve -c stw --rate 20000 --ms 600 \
	  --heap-mb 16 --seed 1 --slo-ms 5 > /dev/null 2>&1; st=$$?; \
	  if [ $$st -ne 6 ]; then \
	    echo "expected SLO breach (exit 6) under overloaded STW, got $$st"; \
	    exit 1; \
	  fi
	@echo "serve smoke OK: deterministic reports, traces clean, SLO gate fires"

# Sharded-cluster smoke: a 4-shard run twice at different --jobs must
# produce byte-identical fleet reports and per-shard traces, with and
# without every fault scenario armed (each shard arms its own
# injector), one shard trace must analyze clean, and an overloaded
# fleet with an SLO must exit 6.
cluster-smoke: build
	mkdir -p $(ART)
	dune exec bin/cgcsim.exe -- cluster --shards 4 --policy lqd \
	  --rate 12000 --slo-ms 50 --heap-mb 16 --ms 600 --seed 1 --jobs 1 \
	  --json $(ART)/cluster-a.json --trace-out $(ART)/cluster-a
	dune exec bin/cgcsim.exe -- cluster --shards 4 --policy lqd \
	  --rate 12000 --slo-ms 50 --heap-mb 16 --ms 600 --seed 1 --jobs 4 \
	  --json $(ART)/cluster-b.json --trace-out $(ART)/cluster-b
	cmp $(ART)/cluster-a.json $(ART)/cluster-b.json
	for k in 0 1 2 3; do \
	  cmp $(ART)/cluster-a.shard$$k.json $(ART)/cluster-b.shard$$k.json \
	    || exit 1; \
	done
	dune exec bin/cgcsim.exe -- analyze \
	  --trace $(ART)/cluster-a.shard0.json --fail-on-drops > /dev/null
	for j in 1 4; do \
	  dune exec bin/cgcsim.exe -- cluster --shards 4 --rate 8000 \
	    --heap-mb 16 --ms 400 --seed 1 --inject all --jobs $$j \
	    --json $(ART)/cluster-inject-j$$j.json \
	    --trace-out $(ART)/cluster-inject-j$$j > /dev/null || exit 1; \
	done
	cmp $(ART)/cluster-inject-j1.json $(ART)/cluster-inject-j4.json
	for k in 0 1 2 3; do \
	  cmp $(ART)/cluster-inject-j1.shard$$k.json \
	    $(ART)/cluster-inject-j4.shard$$k.json || exit 1; \
	done
	@dune exec bin/cgcsim.exe -- cluster --shards 2 -c stw --rate 40000 \
	  --ms 600 --heap-mb 16 --seed 1 --slo-ms 5 --jobs 2 \
	  > /dev/null 2>&1; st=$$?; \
	  if [ $$st -ne 6 ]; then \
	    echo "expected fleet SLO breach (exit 6), got $$st"; \
	    exit 1; \
	  fi
	@echo "cluster smoke OK: fleet report and shard traces deterministic, with and without fault injection; SLO gate fires"

# Generational smoke: two same-seed gen-mode serve runs must produce
# byte-identical reports and traces (minor collections included), a
# gen-mode run must survive the heap + nursery invariant verifier, the
# trace must analyze clean, and a gen-mode fleet must produce
# byte-identical fleet reports and per-shard traces at --jobs 1 vs
# --jobs 4 — host parallelism must not perturb a single minor.
gen-smoke: build
	mkdir -p $(ART)
	dune exec bin/cgcsim.exe -- serve --gc gen --rate 6000 --ms 600 \
	  --heap-mb 16 --seed 1 --json $(ART)/gen-a.json \
	  --trace-out $(ART)/gen-a.trace.json
	dune exec bin/cgcsim.exe -- serve --gc gen --rate 6000 --ms 600 \
	  --heap-mb 16 --seed 1 --json $(ART)/gen-b.json \
	  --trace-out $(ART)/gen-b.trace.json
	cmp $(ART)/gen-a.json $(ART)/gen-b.json
	cmp $(ART)/gen-a.trace.json $(ART)/gen-b.trace.json
	dune exec bin/cgcsim.exe -- serve --gc gen --rate 6000 --ms 600 \
	  --heap-mb 16 --seed 1 --verify > /dev/null
	dune exec bin/cgcsim.exe -- analyze \
	  --trace $(ART)/gen-a.trace.json --fail-on-drops > /dev/null
	dune exec bin/cgcsim.exe -- cluster --gc gen --shards 2 --policy lqd \
	  --rate 6000 --slo-ms 50 --heap-mb 16 --ms 600 --seed 1 --jobs 1 \
	  --json $(ART)/gen-fleet-a.json --trace-out $(ART)/gen-fleet-a
	dune exec bin/cgcsim.exe -- cluster --gc gen --shards 2 --policy lqd \
	  --rate 6000 --slo-ms 50 --heap-mb 16 --ms 600 --seed 1 --jobs 4 \
	  --json $(ART)/gen-fleet-b.json --trace-out $(ART)/gen-fleet-b
	cmp $(ART)/gen-fleet-a.json $(ART)/gen-fleet-b.json
	for k in 0 1; do \
	  cmp $(ART)/gen-fleet-a.shard$$k.json $(ART)/gen-fleet-b.shard$$k.json \
	    || exit 1; \
	done
	@echo "gen smoke OK: minor collections deterministic across seeds and --jobs, verifier clean"

# Fleet chaos smoke: the same shard-crash campaign at --jobs 1 and
# --jobs 4 must produce byte-identical fleet reports and per-incarnation
# traces (the crash victim's trace included), a trace must analyze
# clean, and a fleet whose degradation ladder bottoms out must exit 7.
chaos-smoke: build
	mkdir -p $(ART)
	dune exec bin/cgcsim.exe -- cluster --shards 4 --policy lqd \
	  --rate 8000 --slo-ms 50 --heap-mb 16 --ms 600 --seed 1 --jobs 1 \
	  --chaos shard-crash --json $(ART)/chaos-a.json \
	  --trace-out $(ART)/chaos-a
	dune exec bin/cgcsim.exe -- cluster --shards 4 --policy lqd \
	  --rate 8000 --slo-ms 50 --heap-mb 16 --ms 600 --seed 1 --jobs 4 \
	  --chaos shard-crash --json $(ART)/chaos-b.json \
	  --trace-out $(ART)/chaos-b
	cmp $(ART)/chaos-a.json $(ART)/chaos-b.json
	for f in $(ART)/chaos-a.shard*.json; do \
	  cmp $$f $$(echo $$f | sed 's/chaos-a/chaos-b/') || exit 1; \
	done
	dune exec bin/cgcsim.exe -- analyze \
	  --trace $(ART)/chaos-a.shard0.json --fail-on-drops > /dev/null
	@dune exec bin/cgcsim.exe -- cluster --shards 1 --rate 4000 --ms 600 \
	  --heap-mb 16 --seed 1 --chaos shard-crash --give-up 10 \
	  > /dev/null 2>&1; st=$$?; \
	  if [ $$st -ne 7 ]; then \
	    echo "expected Fleet_unavailable (exit 7), got $$st"; \
	    exit 1; \
	  fi
	@echo "chaos smoke OK: chaos campaigns deterministic, exit-7 gate fires"

# Host-speed gate: perfbench (see perfbench/README.md) runs jbb,
# serve-gen and fleet at seed 1, once for the end-to-end metrics
# (--trace 0, one iteration) and once for the per-layer ones (--trace
# 1, 22 host seconds: usually two or more iterations, whose medians
# steady the per-layer host times).  Each workload's two JSON lines land in
# $(ART)/perfbench-W.jsonl, and bench/perf_smoke.exe fails if a metric
# is worse than the committed baseline bench/baselines/perfbench.json
# by more than its tolerance, or if perfbench reports an incorrect run
# or a failed operation.  docs/OBSERVABILITY.md says how the baseline
# was recorded and how to re-record it.
perf-smoke: build
	mkdir -p $(ART)
	for w in jbb serve-gen fleet; do \
	  dune exec perfbench/main.exe -- --workload $$w --seed 1 \
	    --seconds 1 --trace 0 > $(ART)/perfbench-$$w-0.txt || exit 1; \
	  dune exec perfbench/main.exe -- --workload $$w --seed 1 \
	    --seconds 22 --trace 1 > $(ART)/perfbench-$$w-1.txt || exit 1; \
	  tail -qn 1 $(ART)/perfbench-$$w-0.txt $(ART)/perfbench-$$w-1.txt \
	    > $(ART)/perfbench-$$w.jsonl; \
	done
	dune exec bench/perf_smoke.exe -- bench/baselines/perfbench.json $(ART)

# Tail-forensics smoke: the same chaos campaign at --jobs 1 and
# --jobs 4 must produce byte-identical fleet reports, timelines, and
# tail-forensics artefacts (`analyze --tails` text and JSON); the
# per-incarnation trace set must expand from its prefix and analyze
# clean; and both LBO paths (--report and --bench) must distil.
# Leaves $(ART)/tails.json and $(ART)/lbo.json for CI upload.
tails-smoke: build
	mkdir -p $(ART)
	dune exec bin/cgcsim.exe -- cluster --shards 3 --policy lqd \
	  --rate 6000 --slo-ms 50 --heap-mb 16 --ms 600 --seed 1 --jobs 1 \
	  --chaos shard-restart --json $(ART)/tails-a.json \
	  --trace-out $(ART)/tails-a --timeline-out $(ART)/tails-a.timeline.json
	dune exec bin/cgcsim.exe -- cluster --shards 3 --policy lqd \
	  --rate 6000 --slo-ms 50 --heap-mb 16 --ms 600 --seed 1 --jobs 4 \
	  --chaos shard-restart --json $(ART)/tails-b.json \
	  --trace-out $(ART)/tails-b --timeline-out $(ART)/tails-b.timeline.json
	cmp $(ART)/tails-a.json $(ART)/tails-b.json
	cmp $(ART)/tails-a.timeline.json $(ART)/tails-b.timeline.json
	dune exec bin/cgcsim.exe -- analyze --report $(ART)/tails-a.json \
	  --tails 16 --json $(ART)/tails.json
	dune exec bin/cgcsim.exe -- analyze --report $(ART)/tails-b.json \
	  --tails 16 --json $(ART)/tails-b.tails.json > /dev/null
	cmp $(ART)/tails.json $(ART)/tails-b.tails.json
	dune exec bin/cgcsim.exe -- analyze --report $(ART)/tails-a.json \
	  --lbo > /dev/null
	dune exec bin/cgcsim.exe -- analyze --trace $(ART)/tails-a \
	  --fail-on-drops > /dev/null
	dune exec bench/main.exe -- matrix --fast \
	  --out $(ART)/tails-bench.json \
	  --trace-out $(ART)/tails-bench.trace.json > /dev/null
	dune exec bin/cgcsim.exe -- analyze --bench $(ART)/tails-bench.json \
	  --lbo --json $(ART)/lbo.json
	@echo "tails smoke OK: forensics byte-identical at --jobs 1 vs 4, LBO distils"

# Experiment smoke: two paper experiments in fast mode, each at --jobs 1
# and --jobs 2, must print the same tables and write byte-identical
# --metrics-out CSVs (the CSV is renamed after each run, so both stdouts
# name the same path).
experiment-smoke: build
	mkdir -p $(ART)
	for e in javac ablation-steal; do \
	  for j in 1 2; do \
	    dune exec bin/cgcsim.exe -- experiment $$e --fast --jobs $$j \
	      --metrics-out $(ART)/exp-$$e.csv > $(ART)/exp-$$e-j$$j.txt \
	      && mv $(ART)/exp-$$e.csv $(ART)/exp-$$e-j$$j.csv || exit 1; \
	  done; \
	  cmp $(ART)/exp-$$e-j1.txt $(ART)/exp-$$e-j2.txt || exit 1; \
	  cmp $(ART)/exp-$$e-j1.csv $(ART)/exp-$$e-j2.csv || exit 1; \
	done
	@echo "experiment smoke OK: tables and metrics CSVs identical at --jobs 1 and 2"

# Trace smoke: `cgcsim run` keeps its whole trace by default, so two
# same-seed traced runs must write byte-identical traces and the trace
# must analyze clean under --fail-on-drops.
trace-smoke: build
	mkdir -p $(ART)
	dune exec bin/cgcsim.exe -- run -w specjbb --ms 1000 \
	  --trace-out $(ART)/trace-a.json > /dev/null
	dune exec bin/cgcsim.exe -- run -w specjbb --ms 1000 \
	  --trace-out $(ART)/trace-b.json > /dev/null
	cmp $(ART)/trace-a.json $(ART)/trace-b.json
	dune exec bin/cgcsim.exe -- analyze \
	  --trace $(ART)/trace-a.json --fail-on-drops > /dev/null
	@echo "trace smoke OK: run traces deterministic and lossless"

clean:
	dune clean
	rm -rf $(ART)
