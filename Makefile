# Pre-PR checks. `make check` is the gate: vet, build, full tests, the race
# detector over the concurrent real-I/O packages, the fuzz seed corpus, a
# chaos smoke over the failure-model paths, a one-iteration bench smoke so
# benchmark code can't rot, and the B/op and allocs/op of every tracked
# benchmark against the committed baseline. Timing is not gated here: it
# belongs to the repo's benchmark, `go run ./bench` (see bench/README.md).
GO ?= go

RACE_PKGS := ./internal/policy/... ./internal/store/... ./internal/ooc/... ./internal/faultio/... ./internal/visibility/... ./internal/blocksvc/... ./internal/breaker/... ./internal/netchaos/... ./internal/obs/... ./internal/testutil/... ./internal/tier/... ./internal/shard/... ./internal/camera/... ./cmd/vizserver/... ./cmd/vizsim/...

# The hot-path packages whose numbers are tracked in results/BENCH_ooc.json.
BENCH_PKGS := ./internal/policy/... ./internal/ooc/... ./internal/store/... ./internal/blocksvc/... ./internal/tier/... ./internal/shard/... ./internal/camera/... ./internal/visibility/... ./internal/cache/... ./internal/memhier/...

# Packages with fuzz targets; fuzz-smoke replays their seed corpora.
FUZZ_PKGS := ./internal/policy/... ./internal/blocksvc/... ./internal/store/... ./internal/tier/... ./internal/visibility/... ./internal/cache/... ./internal/shard/... ./internal/camera/... ./internal/f32le/...

# The lifecycle/failure-model suite: failover, drain, heartbeats, breaker,
# the two-replica network-chaos end-to-end run, and the admission
# semaphore's cancel/grant race.
CHAOS_TESTS := 'TestChaos|TestBreaker|TestFailover|TestDrain|TestHandshakeWriteDeadline|TestServerDetectsDeadPeer|TestClientDetectsDeadServer|TestIdleConnToMuteServerDropped|TestIdleConnSurvivesHeartbeats|TestChecksumFaultsDontFailover|TestCloseConcurrentWithReads|TestByteSem'

.PHONY: check vet build max-lines unused-pkgs one-codec one-planner one-executor one-reader exported-callers test race hist-pin chaos chaos-smoke spill-smoke pipe-smoke cluster-smoke fuzz-smoke fuzz-kernel repro-check bench bench-all bench-smoke bench-check

check: vet build max-lines unused-pkgs one-codec one-planner one-executor one-reader exported-callers test race hist-pin chaos-smoke spill-smoke pipe-smoke cluster-smoke fuzz-smoke repro-check bench-smoke bench-check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# max-lines fails when a non-test .go file outside bench/ is over 700 lines:
# past that a file holds more than one concept, and the fix is a split at its
# seams (blocksvc's client and server were each split so, from 1 731 and
# 1 299 lines).
MAX_LINES := 700
max-lines:
	@long=$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec wc -l {} + \
		| awk -v max=$(MAX_LINES) '$$2 != "total" && $$1 > max'); \
	if [ -n "$$long" ]; then echo "non-test files over $(MAX_LINES) lines:"; echo "$$long"; exit 1; fi

# unused-pkgs fails when a repro/internal/* package is imported by nothing
# outside itself (test imports count), so a package cannot sit dead in the
# tree unnoticed.
unused-pkgs:
	@used=$$($(GO) list -f '{{.ImportPath}}{{range .Imports}} {{.}}{{end}}{{range .TestImports}} {{.}}{{end}}{{range .XTestImports}} {{.}}{{end}}' ./... \
		| awk '{for (i = 2; i <= NF; i++) if ($$i != $$1) print $$i}' | sort -u); \
	dead=$$($(GO) list ./internal/... | grep -vxF "$$used"); \
	if [ -n "$$dead" ]; then echo "internal packages nothing imports:"; echo "$$dead"; exit 1; fi

# one-codec fails when the voxel encoding (little-endian float32 under a
# CRC-32C) is spelled anywhere but internal/f32le/f32le.go: a second checksum
# table, an "unsafe" import or a math.Float32bits/Float32frombits loop in a
# non-test file of the product. The bulk path sat in blocksvc for ten PRs
# without reaching store or tier; this is the guard against the next copy. The
# one exception is the fault injector's bit flip (the line ending "^ bit)"),
# which corrupts a value, not encodes one.
one-codec:
	@stray=$$(grep -rnE 'crc32\.MakeTable|"unsafe"|math\.Float32' --include='*.go' --exclude='*_test.go' cmd internal *.go \
		| grep -v '^internal/f32le/f32le\.go:' \
		| grep -v '^internal/faultio/injector\.go:[0-9]*:.*) ^ bit)$$'); \
	if [ -n "$$stray" ]; then echo "voxel encoding outside internal/f32le/f32le.go:"; echo "$$stray"; exit 1; fi

# one-planner fails when Algorithm 1's prefetch-candidate test is spelled
# anywhere but internal/policy/planner.go: a non-test file of the product,
# outside internal/policy and internal/visibility, that reads a T_visible set
# (AppendSet(, the table's one read) or compares an entropy Score( with σ.
# The test sat in ooc and blocksvc as a thinner twin of the simulator's,
# unranked and unbudgeted, for twenty PRs. The one named exception is
# internal/experiments' ext-time, whose next-timestep prefetch is the
# extension's own experiment, not the policy.
one-planner:
	@stray=$$(grep -rnE 'AppendSet\(|Score\([^)]*\) *[<>]=? *[^ ]*[sS]igma|[sS]igma *[<>]=? *[^ ]*Score\(' --include='*.go' --exclude='*_test.go' cmd internal *.go \
		| grep -vE '^internal/(policy|visibility)/' \
		| grep -vE '^internal/experiments/exttime\.go:[0-9]*:.*Score\(id\) <= sigma'); \
	if [ -n "$$stray" ]; then echo "prefetch candidates chosen outside internal/policy/planner.go:"; echo "$$stray"; exit 1; fi

# one-executor fails when a simulated hierarchy is driven anywhere but
# internal/sim: a non-test file of the product, outside internal/sim and
# internal/memhier, that calls memhier.New(, or a non-test file of
# internal/policy that imports memhier. Algorithm 1 was carried out on the
# simulated side by three hand-written loops (policy.AppAware, RunBaseline's,
# and the Viewer's rebuilt stack), and the Viewer's metrics drifted from its
# own frames. The one named exception is internal/experiments' ext-time,
# whose hierarchy is keyed by (timestep, block), its own experiment.
one-executor:
	@stray=$$( { grep -rn 'memhier\.New(' --include='*.go' --exclude='*_test.go' cmd internal *.go \
		| grep -vE '^internal/(sim|memhier)/|^internal/experiments/exttime\.go:'; \
		grep -rn '"repro/internal/memhier"' --include='*.go' --exclude='*_test.go' internal/policy; } ); \
	if [ -n "$$stray" ]; then echo "a simulated hierarchy driven outside internal/sim:"; echo "$$stray"; exit 1; fi

# one-reader fails when a non-test file of the product, outside bench/,
# type-asserts a block reader to one of store's single-method reader
# interfaces (BatchBlockReader, ContextBlockReader, BlockBufRecycler) or to
# an anonymous interface of those methods, or declares a ReadBlockContext
# method. store.BlockReader is the one contract — a single read, a batch
# under a context, a recycle — and every reader meets it whole; the reader
# seam once held a hand-written fallback per wrapper (MemCache, tier.Reader,
# faultio.Injector) that only test doubles reached.
one-reader:
	@stray=$$(grep -rnE '\.\((store\.)?(BatchBlockReader|ContextBlockReader|BlockBufRecycler)\)|\.\(interface *\{ *(ReadBlocks|ReadBlockContext|RecycleBlockBuf)\(|\) ReadBlockContext\(' \
		--include='*.go' --exclude='*_test.go' cmd examples internal *.go); \
	if [ -n "$$stray" ]; then echo "a block reader asserted past store.BlockReader:"; echo "$$stray"; exit 1; fi

# exported-callers fails when an exported function, method, type or
# package-level variable outside bench/, cmd/ and examples/ has no caller in
# the module's non-test Go (TestEveryExportedNameHasACaller, a go/types pass
# over `go list -deps`; a method that satisfies an interface counts as
# called). Such names were twice found by hand in review and deleted, and a
# type-accurate scan after that still found 83; tier-1 runs the same test,
# this target runs it alone. Its allowlist gives one reason a line.
exported-callers:
	$(GO) test -count=1 -run '^(TestEveryExportedNameHasACaller|TestExportedCallerCheck)$$' .

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
# heal must all survive every commit — the read path's verdicts on a
# damaged file, each with the block buffer handed back, Put and Drain
# racing Close on the spill queue, a warm hit's two positioned reads on a
# held descriptor, the open set's bound and lifetime under eviction churn,
# and a read that loses its descriptor — alone or amid concurrent churn —
# counted as a race, never as a disk fault.
spill-smoke:
	$(GO) test -race -count=1 -run='EndToEnd|TestPolicyParity|TestRescan|TestBreaker|TestDamagedSpill|TestSpillLengthCheckedIn64Bits|TestDrain|TestSpillHitIsTwoReads|TestOpenSetBounded|TestClosedDescriptorIsARace|TestConcurrentAccess' ./internal/tier/

# pipe-smoke runs the wire-path suite under the race detector: the
# other-version hello refusal; the transport table — whole-block round trip,
# a run of mixed statuses, pipelined batches multiplexed over one conn and
# the payload-CRC reject and the server's remembered CRC, each over the pipe
# and over loopback TCP; a view hint sent beside full tags; the mid-response
# stall failover scope; the payload length checked against the geometry; the
# streaming parser's entry shapes; the read buffer's fills kept out of large
# payloads; and the run no frame can carry, answered or refused but never
# dropped in silence.
pipe-smoke:
	$(GO) test -race -count=1 -run='TestVersionMismatchRefused|TestRemoteValuesMatchLocal|TestMixedStatusRun|TestPipelined|TestSendViewNotBehindReads|TestWireCRCReject|TestServerChecksumIsRemembered|TestStallMidResponse|TestLyingLengthRejected|TestBlocksEntryShapes|TestLargePayloadSkipsReadBuffer|TestOversizeRunNeverSilent' ./internal/blocksvc/

# cluster-smoke runs the sharded-cluster suite under the race detector: a
# 3-node in-process cluster with client-side consistent-hash routing, one
# node killed mid-orbit and the map rebalanced by a live topology push —
# every frame must stay error-free, plus the redirect/drain wire pins.
cluster-smoke:
	$(GO) test -race -count=1 -run='TestCluster' ./internal/blocksvc/
	$(GO) test -race -count=1 ./internal/shard/

# repro-check regenerates every paper artefact at the recorded scale and
# compares it byte for byte with results/: the 15 CSVs, and the text report
# minus its wall-clock "completed in" lines. The figures come out of the same
# cache.Level that serves traffic, so a replacement decision that moves — in
# a policy or in the level — shows here (~20 s).
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

# bench-check is `bench` with -check: rerun every tracked benchmark and fail
# if B/op or allocs/op grew more than 5% past results/BENCH_ooc.json — the
# two dimensions a rerun reproduces (allocs/op exactly, so a baseline of up
# to 20 fails on +1, and a recorded 0 on any allocation) — and fail on a
# recorded row that no benchmark in the run produced. ns/op is in the
# JSON for reading only; compare timing with `go run ./bench -compare` on
# interleaved parent/change runs. Re-record with `make bench` (and commit
# the JSON) when a deliberate change or a new toolchain moves the numbers.
bench-check:
	$(GO) test -bench=. -benchmem -run='^$$' $(BENCH_PKGS) | $(GO) run ./cmd/benchjson -check results/BENCH_ooc.json

# fuzz-smoke replays each fuzz target's seed corpus as ordinary tests, so a
# decoder change that panics on a known-interesting input fails the gate.
fuzz-smoke:
	$(GO) test -run='^Fuzz' $(FUZZ_PKGS)

# fuzz-kernel fuzzes the visible-set kernel against its flat-scan oracle
# (FuzzVisibleSetEqualsOracle) for FUZZTIME, and prints the exec count as the
# fuzzer's last status line. It is not part of check. An input that fails is
# written under internal/visibility/testdata/fuzz/, where fuzz-smoke replays
# it from then on: commit it with the fix.
FUZZTIME ?= 2m
fuzz-kernel:
	$(GO) test -run='^$$' -fuzz='^FuzzVisibleSetEqualsOracle$$' -fuzztime=$(FUZZTIME) ./internal/visibility/
