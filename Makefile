# Pre-PR checks. `make check` is the gate: vet, build, full tests, the race
# detector over the concurrent real-I/O packages, the fuzz seed corpus, a
# chaos smoke over the failure-model paths, a one-iteration bench smoke so
# benchmark code can't rot, and the frame-path perf gates against the
# committed baseline.
GO ?= go

RACE_PKGS := ./internal/store/... ./internal/ooc/... ./internal/faultio/... ./internal/visibility/... ./internal/blocksvc/... ./internal/breaker/... ./internal/netchaos/... ./internal/obs/... ./internal/testutil/... ./internal/tier/... ./internal/shard/... ./internal/camera/... ./internal/loadgen/... ./cmd/vizserver/...

# The hot-path packages whose numbers are tracked in results/BENCH_ooc.json.
BENCH_PKGS := ./internal/ooc/... ./internal/store/... ./internal/blocksvc/... ./internal/tier/... ./internal/shard/... ./internal/camera/...

# Packages with fuzz targets; fuzz-smoke replays their seed corpora.
FUZZ_PKGS := ./internal/blocksvc/...

# The lifecycle/failure-model suite: failover, drain, heartbeats, breaker,
# and the two-replica network-chaos end-to-end run.
CHAOS_TESTS := 'TestChaos|TestBreaker|TestFailover|TestDrain|TestHandshakeWriteDeadline|TestServerDetectsDeadPeer|TestClientDetectsDeadServer|TestKeepalive|TestChecksumFaultsDontFailover|TestCloseConcurrentWithReads'

.PHONY: check vet build unused-pkgs test race hist-pin chaos chaos-smoke spill-smoke pipe-smoke cluster-smoke load load-smoke fuzz-smoke repro-check bench bench-all bench-smoke bench-check

check: vet build unused-pkgs test race hist-pin chaos-smoke spill-smoke pipe-smoke cluster-smoke load-smoke fuzz-smoke repro-check bench-smoke bench-check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# unused-pkgs fails when a repro/internal/* package is imported by nothing
# outside itself (test imports count), so a package cannot sit dead in the
# tree unnoticed.
unused-pkgs:
	@used=$$($(GO) list -f '{{.ImportPath}}{{range .Imports}} {{.}}{{end}}{{range .TestImports}} {{.}}{{end}}{{range .XTestImports}} {{.}}{{end}}' ./... \
		| awk '{for (i = 2; i <= NF; i++) if ($$i != $$1) print $$i}' | sort -u); \
	dead=$$($(GO) list ./internal/... | grep -vxF "$$used"); \
	if [ -n "$$dead" ]; then echo "internal packages nothing imports:"; echo "$$dead"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# hist-pin repeats the histogram's concurrent Observe/Snapshot test enough
# times to catch a count published before min/max (it failed 1 run in 21
# before Observe was reordered).
hist-pin:
	$(GO) test -race -count=200 -run TestHistogramConcurrent ./internal/obs/

# chaos runs the failure-model suite under the race detector, repeated to
# shake out interleavings: replica kill/restart, graceful drain, dead-peer
# detection, breaker transitions, and wire corruption via netchaos.
chaos:
	$(GO) test -race -count=5 -run=$(CHAOS_TESTS) ./internal/blocksvc/
	$(GO) test -race -count=5 ./internal/netchaos/

# chaos-smoke is the single-pass version for the check gate.
chaos-smoke:
	$(GO) test -race -count=1 -run=$(CHAOS_TESTS) ./internal/blocksvc/
	$(GO) test -race -count=1 ./internal/netchaos/

# spill-smoke runs the persistent-tier crash-recovery and disk-fault
# degradation end-to-ends (plus the cross-stack policy parity pin) under
# the race detector: kill-mid-spill recovery, quarantine, breaker trip and
# heal must all survive every commit.
spill-smoke:
	$(GO) test -race -count=1 -run='EndToEnd|TestPolicyParity|TestRescan|TestBreaker' ./internal/tier/

# pipe-smoke runs the wire-path suite under the race detector: the
# other-version hello refusal, the compression codec round-trip, pipelined
# batches multiplexed over one conn, the mid-response stall failover scope,
# and the lying-compressed-header allocation bound.
pipe-smoke:
	$(GO) test -race -count=1 -run='TestVersionMismatchRefused|TestCompressionRoundTrip|TestPipelined|TestStallMidResponse|TestLyingFlateHeader' ./internal/blocksvc/

# cluster-smoke runs the sharded-cluster suite under the race detector: a
# 3-node in-process cluster with client-side consistent-hash routing, one
# node killed mid-orbit and the map rebalanced by a live topology push —
# every frame must stay error-free, plus the redirect/drain/plain-client
# wire pins.
cluster-smoke:
	$(GO) test -race -count=1 -run='TestCluster' ./internal/blocksvc/
	$(GO) test -race -count=1 ./internal/shard/

# repro-check regenerates every paper artefact at the recorded scale and
# compares it byte for byte with results/: the 15 CSVs, and the text report
# minus its wall-clock "completed in" lines. The figures come out of the same
# cache.Level that serves traffic, so a replacement decision that moves — in
# a policy or in the level — shows here (~2.5 min).
repro-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/repro -exp all -scale 0.125 -steps 200 -csv "$$tmp" | grep -v 'completed in' > "$$tmp/stdout" && \
	grep -v 'completed in' results/repro_output.txt | cmp - "$$tmp/stdout" && \
	for f in results/*.csv; do cmp "$$f" "$$tmp/$$(basename $$f)" || exit 1; done && \
	test "$$(ls "$$tmp"/*.csv | wc -l)" -eq "$$(ls results/*.csv | wc -l)" && \
	echo "repro-check: results/ regenerates byte-identically"

# bench records the tracked hot-path numbers to results/BENCH_ooc.json (and
# echoes the raw output). Commit the JSON when the numbers move.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' $(BENCH_PKGS) | $(GO) run ./cmd/benchjson -out results/BENCH_ooc.json

# bench-all runs every benchmark in the repo without recording.
bench-all:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# bench-smoke compiles and runs every tracked benchmark for one iteration:
# fast enough for the check gate, enough to catch bit-rotted bench code.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' $(BENCH_PKGS) >/dev/null

# bench-check is the perf gate: rerun the frame hot paths — local and remote
# — and fail if ns/op regressed more than 25% past the committed baseline.
# Re-record with `make bench` (and commit the JSON) when a deliberate change
# moves them. The remote gate proves liveness costs nothing on the
# steady-state demand path.
bench-check:
	$(GO) test -bench='^BenchmarkFrame$$' -benchmem -run='^$$' ./internal/ooc/ | $(GO) run ./cmd/benchjson -check results/BENCH_ooc.json -max-regress 25
	$(GO) test -bench='^BenchmarkRemoteFrame$$' -benchmem -run='^$$' ./internal/blocksvc/ | $(GO) run ./cmd/benchjson -check results/BENCH_ooc.json -max-regress 25
	$(GO) test -bench='^BenchmarkShardedRemoteFrame$$' -benchmem -run='^$$' ./internal/blocksvc/ | $(GO) run ./cmd/benchjson -check results/BENCH_ooc.json -max-regress 25
	$(GO) test -bench='^BenchmarkTieredFrame$$' -benchmem -run='^$$' ./internal/tier/ | $(GO) run ./cmd/benchjson -check results/BENCH_ooc.json -max-regress 25
	$(GO) test -bench='^BenchmarkPredict$$' -benchmem -run='^$$' ./internal/camera/ | $(GO) run ./cmd/benchjson -check results/BENCH_ooc.json -max-regress 25

# load records the multi-user capacity curve — p50/p95/p99 frame latency,
# shed rate, prefetch-hit ratio vs session count — to results/LOADGEN.json.
# Deterministic in the seed; commit the JSON when the curve moves.
load:
	$(GO) run ./cmd/loadgen -seed 1 -sessions 4,16,64 -frames 48 -out results/LOADGEN.json

# load-smoke is the check-gate version: the predictive-prefetch and harness
# suites under the race detector, then a small real fleet through the CLI —
# zero frame errors and a well-formed report or the gate fails.
load-smoke:
	$(GO) test -race -count=1 ./internal/loadgen/ ./internal/camera/
	$(GO) run ./cmd/loadgen -sessions 2,8 -frames 8 -smoke

# fuzz-smoke replays each fuzz target's seed corpus as ordinary tests, so a
# decoder change that panics on a known-interesting input fails the gate.
fuzz-smoke:
	$(GO) test -run='^Fuzz' $(FUZZ_PKGS)
