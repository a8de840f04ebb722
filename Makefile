# Tier-1 verification. `make ci` is the one list of gates;
# .github/workflows/ci.yml runs it.

.PHONY: ci verify build vet test alloc-check fuzz-smoke lint tidy-check benchmark-smoke perf-ab loc loc-check determinism-check trace-smoke chaos-smoke golden-check examples-check

ci: verify alloc-check fuzz-smoke loc-check determinism-check trace-smoke chaos-smoke golden-check examples-check

verify: build vet test lint tidy-check benchmark-smoke

build:
	go build ./...

vet:
	go vet ./...

# test runs every package under the race detector: among them the MPCI
# provider conformance suite (./internal/mpci, every registered provider
# through the shared eager/rendezvous/ordering/mode/fault tests), the
# committed-artifact self-comparison (TestCompareSelfCleanAllArtifacts)
# and the spsimd end-to-end cache tests (./internal/campaign/server).
test:
	go test -race ./...

# alloc-check runs the zero-allocation gates (kernel event loop, sleep,
# park→wake, Queue, the pool's free-list hand-off on an After+Run cycle, a
# warm engine making no fresh pooled buffer and growing no event slot, a
# warm After+Run cycle over many radix-queue buckets allocating nothing
# (its bucket table travels with the arena), a warm fabric making no
# packet record, the pointer-free event keys, the HAL packet path, a Pipes
# stream, the LAPI send window and receive records, a memoised NAS serial
# reference, a memoised chaos payload fold (chaos.TestFoldHitZeroAlloc), a
# planned NAS FFT (nas.TestFFTPlanZeroAlloc))
# without the race detector: its instrumentation allocates, so `make test`
# skips those it perturbs.
alloc-check:
	go test -count=1 -run 'ZeroAlloc|NoPointers' ./internal/...

# fuzz-smoke fuzzes two parsers for ten seconds each. The sweep artifact
# decoder (sweep.FuzzLoad, seeded with the committed BENCH_*.json): any
# input it accepts must compare with itself at tolerance 0 without error,
# movement or regression. The fault-plan spec parser (faults.FuzzParse,
# seeded with the presets and specs it must reject): any plan it accepts
# must be valid and round-trip through JSON. A failing input is written
# under the package's testdata.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 10s ./internal/sweep
	go test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/faults

# lint runs the determinism-invariant analyzer suite (internal/simlint).
# Exit: 0 clean, 1 findings, 2 load errors, 3 stale allow directives.
lint:
	go run ./cmd/simlint ./...

tidy-check:
	go mod tidy -diff

# benchmark-smoke vets and tests the repository benchmark (cmd/benchmark,
# a module of its own that `./...` above does not see): every workload and
# the traced path at smoke scale, every virtual-time pin in expected.json
# at tolerance 0, and BENCHMARK.json equal to the tables in the binary.
# Host-time numbers themselves come from `go run -C cmd/benchmark .`
# (cmd/benchmark/README.md).
benchmark-smoke:
	go vet -C cmd/benchmark ./...
	go test -C cmd/benchmark ./...

# perf-ab judges the working tree against BASE with the repository
# benchmark: BASE is unpacked beside it, both cmd/benchmark binaries are
# built once, and every workload runs PAIRS (default and minimum 10) pairs
# with the first side alternating over one shared seed list; the output is
# pairs won per workload x metric, then -compare both ways round. It refuses
# to run if cmd/benchmark or BENCHMARK.json differ from BASE. About 40
# minutes for all five workloads; WORKLOADS="a b" narrows it.
perf-ab:
	@test -n "$(BASE)" || { echo "usage: make perf-ab BASE=<rev> [PAIRS=10] [WORKLOADS='pingpong_small ...']" >&2; exit 2; }
	sh scripts/perf-ab.sh "$(BASE)"

# loc prints the tracked size of the tree: non-test Go lines per package
# and in total, outside testdata and cmd/benchmark (ROADMAP: "non-test LoC
# is a tracked number").
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './cmd/benchmark/*' ! -path '*/testdata/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

# loc-check is the ratchet on that number: it fails when the total exceeds
# LOC_MAX. A PR that shrinks the tree lowers LOC_MAX to its own result; a PR
# that must grow it raises LOC_MAX in the same diff, where a reviewer sees it.
LOC_MAX = 19278
loc-check:
	@total=$$($(MAKE) -s --no-print-directory loc | awk '$$2 == "total" { print $$1 }'); \
	echo "loc-check: $$total non-test Go lines (LOC_MAX $(LOC_MAX))"; \
	test "$$total" -le $(LOC_MAX)

# determinism-check holds all eight committed BENCH_*.json to a fresh sweep
# at each file's own seeds and base seed, every point field equal
# (sweep.TestCommittedArtifactsRegenerate): performance work on the
# kernel must never move a virtual-time result. It also runs every cell of
# every experiment with and without an event log attached and requires equal
# measurements (sweep.TestTracingIsObservational): tracing is observational.
# Both skip under -race, so `make test` does not run them.
determinism-check:
	go test -count=1 ./internal/sweep -run 'TestCommittedArtifactsRegenerate|TestTracingIsObservational'

# golden-check demands that the text reports still regenerate the committed
# results_all.txt byte for byte (about 4 s).
golden-check:
	go run ./cmd/spsim -exp all | cmp - results_all.txt

# examples-check runs every program under examples/ in directory order and
# demands that their concatenated output still equal examples/golden.txt
# byte for byte (about 1 s). The examples print virtual times only, and they
# reach HAL.ChargeCPU from user code, which no benchmark workload does.
examples-check:
	for d in examples/*/; do go run ./$$d || echo "examples-check: $$d failed"; done | cmp - examples/golden.txt

# trace-smoke exercises the tracing triangle in CI: export a trace from the
# smallest fig10 cell (raw LAPI, 1 byte), validate the schema tag, require
# self-comparison to report identity (exit 0), and require two
# fault-injected runs on different seeds to diverge (tracediff exit 1 with a
# first-divergence report).
TRACE_CELL = go run ./cmd/pingpong -provider raw-lapi -size 1
trace-smoke:
	$(TRACE_CELL) -trace /tmp/trace_clean.json
	grep -q '"schema":"tracelog/v1"' /tmp/trace_clean.json
	go run ./cmd/tracediff /tmp/trace_clean.json /tmp/trace_clean.json
	$(TRACE_CELL) -trace /tmp/trace_drop1.json -faults uniform:drop=0.02 -seed 1
	$(TRACE_CELL) -trace /tmp/trace_drop2.json -faults uniform:drop=0.02 -seed 2
	go run ./cmd/tracediff /tmp/trace_drop1.json /tmp/trace_drop2.json; test $$? -eq 1

# chaos-smoke runs the fault-injection acceptance harness on all four preset
# plans x seeds 1-6 x every workload, gating on payload-exact MPI results,
# completion without deadlock, bounded completion-time inflation, and
# bit-identical same-seed reruns. Nonzero exit on any gate failure. Seeds
# 1-6 all complete; seed 7 is the corruptor preset's first livelock
# (ROADMAP, hang 2).
chaos-smoke:
	go run ./cmd/chaos -plans burst-loss,corruptor,flappy-route,stalled-adapter -seeds 6
