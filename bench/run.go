package main

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	vizcache "repro"
	"repro/internal/blocksvc"
	"repro/internal/camera"
	"repro/internal/grid"
	"repro/internal/ooc"
	"repro/internal/store"
	"repro/internal/tier"
	"repro/internal/vec"
	"repro/internal/visibility"
)

// runConfig is one run of one workload.
type runConfig struct {
	w       workload
	seed    uint64
	seconds float64 // measure this long; 0: count frames instead
	scale   float64 // of the workload's frame and warm-up counts; 1 but in go test
	trace   bool
	setups  int      // set-ups timed; the last one is the one measured on
	dir     string   // parent of the run's scratch directories
	out     string   // where a traced run writes its spans; "" keeps them in memory only
	spanCap int      // spans a traced run can hold
	fixture *fixture // built already and not the run's to close: go test builds each volume once
}

// result is what one run reports; it is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// reference is a traced run's untraced half, end to end: what the layer
	// figures are layers of. Printed for the reader, not part of the result.
	reference map[string]metric
	problems  []string
}

const (
	// setups is how often an untraced run sets its workload up; setup_s is
	// the median. A traced run sets up once.
	setups = 3
	// spanCap is some twenty times the spans the busiest workload records in
	// the fourteen seconds the driver's traced run gives its traced half.
	spanCap = 1 << 22
)

// verifyEvery is how often a measured frame's blocks are checked against the
// fixture file's checksums. The first measured frame is always checked.
const verifyEvery = 16

// phase is what one measured stretch of frames produced.
type phase struct {
	sessions       int
	frames, failed int64
	samples        []int64 // frame latencies in ns, all sessions, sorted
	wall           time.Duration
	verify         time.Duration // inside wall, spent checking outputs, all sessions
	visible        int64         // blocks demanded
	simPrefetches  int64
	problems       []string
	before, after  counters

	// counted is the counters once countedFrames frames were done, the same
	// number in every run: what alloc_kb_per_frame and demand_miss_rate are
	// taken over, so that neither moves with how far a time-bound run gets.
	counted       counters
	countedFrames int64
}

// perSecond is measured frames per second of measured wall time, the checking
// of outputs, which the sessions do side by side, taken out.
func (p *phase) perSecond() float64 {
	busy := p.wall - p.verify/time.Duration(p.sessions)
	return ratio(float64(p.frames), busy.Seconds())
}

// latencyMs is the pct-th percentile of frame latency, nearest rank on the
// exact sorted samples.
func (p *phase) latencyMs(pct float64) float64 {
	return float64(percentile(p.samples, pct)) / 1e6
}

// counters is every public counter of the stack plus the process's own, read
// at the two ends of a phase.
type counters struct {
	ooc      ooc.Stats
	cache    store.CacheCounters
	srvCache store.CacheCounters
	file     store.IOStats
	tier     tier.Counters
	client   blocksvc.ClientStats
	server   blocksvc.ServerStats
	sim      vizcache.Metrics
	mem      runtime.MemStats
	cpu      time.Duration

	tierSeamBlocks                 int64
	fsReadOps, fsWriteOps, fsSyncs int64
	fsBytesWritten, puts           int64
}

func (s *stack) snapshot() counters {
	var c counters
	if s.rt != nil {
		c.ooc = s.rt.Snapshot()
	}
	if s.cache != nil {
		c.cache = s.cache.Counters()
	}
	if s.serverCache != nil {
		c.srvCache = s.serverCache.Counters()
	}
	if f := cmp.Or(s.file, s.serverFile); f != nil {
		c.file = f.IOStats()
	}
	if s.tier != nil {
		c.tier = s.tier.Counters()
	}
	for _, r := range s.readers {
		st := r.Snapshot()
		c.client.Dials += st.Dials
		c.client.Requests += st.Requests
		c.client.BlocksRequested += st.BlocksRequested
		c.client.BlocksServed += st.BlocksServed
		c.client.BytesReceived += st.BytesReceived
		c.client.ShedRequests += st.ShedRequests
		c.client.ChecksumErrors += st.ChecksumErrors
		c.client.TransportErrors += st.TransportErrors
	}
	if s.server != nil {
		c.server = s.server.Snapshot()
	}
	if s.viewer != nil {
		c.sim = s.viewer.Metrics()
	}
	if s.tierSeam != nil {
		c.tierSeamBlocks = s.tierSeam.blocks.Load()
	}
	if s.fs != nil {
		c.fsReadOps, c.fsWriteOps = s.fs.n.readOps.Load(), s.fs.n.writeOps.Load()
		c.fsSyncs, c.fsBytesWritten = s.fs.n.syncs.Load(), s.fs.n.bytesWritten.Load()
	}
	c.puts = s.puts.Load()
	runtime.ReadMemStats(&c.mem)
	c.cpu = processCPU()
	return c
}

// processCPU is the user plus system CPU time of this process: client and
// server both, since the server runs here too.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var littleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// blockCRC is the CRC32C of a block's voxels as little-endian float32 bytes,
// the checksum the block file stores. It is a check of content against the
// fixture, not the wire's CRC. On a little-endian machine the bytes are the
// slice's own memory.
func blockCRC(vals []float32) uint32 {
	if len(vals) == 0 {
		return 0
	}
	if littleEndian {
		return crc32.Checksum(unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), 4*len(vals)), castagnoli)
	}
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	return crc32.Checksum(buf, castagnoli)
}

// verifyBlocks checks delivered blocks against the fixture file's checksums.
func (fx *fixture) verifyBlocks(ids []grid.BlockID, data [][]float32) error {
	if len(data) != len(ids) {
		return fmt.Errorf("%d blocks delivered for %d asked", len(data), len(ids))
	}
	for i, id := range ids {
		want, ok := fx.truth.BlockChecksum(id)
		if !ok {
			return fmt.Errorf("block %d: fixture has no checksum", id)
		}
		if got := blockCRC(data[i]); got != want {
			return fmt.Errorf("block %d: content crc %08x, fixture says %08x", id, got, want)
		}
	}
	return nil
}

// sessionRec is what one session recorded during a phase.
type sessionRec struct {
	frames, failed int64
	samples        []int64 // frame latencies in ns
	verify         time.Duration
	visible        int64
	simPrefetches  int64
	problems       []string
}

func (r *sessionRec) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 3 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// frame runs view point i of a session: camera position in, all visible
// blocks in hand. It returns the frame's latency. The check of outputs and
// the handing back of buffers come after the latency clock stops; the render
// sleep is the caller's.
func (s *stack) frame(ctx context.Context, sess, i int, check bool, rec *sessionRec) time.Duration {
	steps := s.steps[sess]
	pos := steps[i%len(steps)]
	tr := s.tr
	fid := tr.newFrame()
	t0 := time.Now()
	fsp := tr.begin(spFrame, noSpan, fid)

	if s.viewer != nil {
		sp := tr.begin(spSimGoto, fsp, fid)
		st := s.viewer.Goto(pos)
		tr.end(sp)
		tr.end(fsp)
		lat := time.Since(t0)
		rec.visible += int64(st.VisibleBlocks)
		rec.simPrefetches += int64(st.Prefetches)
		if check {
			v0 := time.Now()
			want := len(vizcache.VisibleBlocks(s.viewer.Grid(), vizcache.Camera{Pos: pos, ViewAngle: vec.Radians(viewAngleDeg)}))
			if st.VisibleBlocks != want {
				rec.fail("step %d: %d visible blocks, VisibleBlocks says %d", i, st.VisibleBlocks, want)
			}
			rec.verify += time.Since(v0)
		}
		return lat
	}

	fx := s.fx
	var reader *blocksvc.RemoteReader
	if s.rt == nil {
		reader = s.readers[sess]
		// The view hint goes first, as a viewer whose camera moved sends it.
		sp := tr.begin(spSendView, fsp, fid)
		err := reader.SendView(ctx, pos)
		tr.end(sp)
		if err != nil {
			rec.fail("frame %d: send view: %v", i, err)
		}
	}
	sp := tr.begin(spVisibleSet, fsp, fid)
	visible := visibility.VisibleSet(fx.g, camera.Camera{Pos: pos, ViewAngle: fx.theta})
	tr.end(sp)
	rec.visible += int64(len(visible))

	var data [][]float32
	var bad error
	if s.rt != nil {
		sp := tr.begin(spOOCFrame, fsp, fid)
		fctx := ctx
		if tr != nil {
			fctx = withSpan(ctx, spanRef{frame: fid, span: sp})
		}
		var rep ooc.FrameReport
		data, rep, bad = s.rt.Frame(fctx, pos, visible)
		tr.end(sp)
		if bad == nil && rep.Degraded {
			bad = fmt.Errorf("degraded, %d blocks missing", len(rep.Missing))
		}
	} else {
		sp := tr.begin(spClientRead, fsp, fid)
		var errs []error
		data, errs = reader.ReadBlocks(ctx, visible)
		tr.end(sp)
		bad = errors.Join(errs...)
	}
	tr.end(fsp)
	lat := time.Since(t0)

	if bad == nil && check {
		v0 := time.Now()
		bad = fx.verifyBlocks(visible, data)
		rec.verify += time.Since(v0)
	}
	if bad != nil {
		rec.fail("frame %d: %v", i, bad)
	}
	// The frame is rendered. Where no cache holds the buffers the caller is
	// their only owner and hands them back, as BenchmarkRemoteFrame and
	// internal/loadgen do.
	if s.w.clientCache == 0 || s.w.clientCache == passThrough {
		for _, v := range data {
			if v != nil {
				s.readers[sess].RecycleBlockBuf(v)
			}
		}
	}
	return lat
}

// runFrames drives every session from path index from until stop says so for
// that session, and returns what they recorded. With measure unset nothing is
// checked or kept: that is the warm-up. The session that completes frame
// countAt of the phase, all sessions counted, reads the counters there; a phase
// that ends sooner, or a countAt of 0, reads them at its end.
func (s *stack) runFrames(ctx context.Context, from int, measure bool, countAt int64, stop func(done int, elapsed time.Duration) bool) *phase {
	p := &phase{sessions: len(s.steps)}
	var done atomic.Int64
	if measure {
		p.before = s.snapshot()
	}
	recs := make([]sessionRec, len(s.steps))
	start := time.Now()
	var wg sync.WaitGroup
	for sess := range s.steps {
		wg.Add(1)
		go func(sess int) {
			defer wg.Done()
			rec := &recs[sess]
			for n := 0; !stop(n, time.Since(start)); n++ {
				lat := s.frame(ctx, sess, from+n, measure && n%verifyEvery == 0, rec)
				rec.frames++
				if measure {
					rec.samples = append(rec.samples, int64(lat))
					if done.Add(1) == countAt {
						v0 := time.Now()
						p.counted, p.countedFrames = s.snapshot(), countAt
						rec.verify += time.Since(v0) // not the program's time either
					}
				}
				if s.w.think > 0 {
					time.Sleep(s.w.think) // stands in for rendering the frame
				}
			}
		}(sess)
	}
	wg.Wait()
	p.wall = time.Since(start)
	if measure {
		p.after = s.snapshot()
	}
	for i := range recs {
		r := &recs[i]
		p.frames += r.frames
		p.failed += r.failed
		p.samples = append(p.samples, r.samples...)
		p.verify += r.verify
		p.visible += r.visible
		p.simPrefetches += r.simPrefetches
		p.problems = append(p.problems, r.problems...)
	}
	slices.Sort(p.samples)
	if p.countedFrames == 0 {
		p.counted, p.countedFrames = p.after, p.frames
	}
	return p
}

// measured is a built, warmed-up stack and the phase measured on it.
type measured struct {
	s     *stack
	p     *phase
	setup []float64 // seconds, one per set-up
	mark  int       // spans before this index belong to set-up and warm-up
}

// setUpAndMeasure sets the workload up cfg.setups times, timing each from an
// empty directory to the last warm-up frame, tears all but the last down, and
// measures on the last. The caller closes the returned stack.
func setUpAndMeasure(ctx context.Context, cfg runConfig, tr *tracer) (*measured, error) {
	w := cfg.w
	frames := max(int(float64(w.frames)*cfg.scale), 1)
	warm := max(int(float64(w.warm)*cfg.scale), 1)
	pathLen := warm + frames
	if cfg.seconds > 0 {
		pathLen = warm + 10*w.frames // a time-bound run wraps around if it gets further
	}
	m := &measured{}
	for i := 0; i < cfg.setups; i++ {
		last := i == cfg.setups-1
		var t *tracer
		if last {
			t = tr
		}
		dir := filepath.Join(cfg.dir, fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), i))
		t0 := time.Now()
		s, err := buildStack(w, dir, cfg.seed, pathLen, t, cfg.fixture)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		s.runFrames(ctx, 0, false, 0, func(done int, _ time.Duration) bool { return done >= warm })
		m.setup = append(m.setup, time.Since(t0).Seconds())
		if !last {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("tear-down: %w", err)
			}
			continue
		}
		m.s = s
	}
	stop := func(done int, _ time.Duration) bool { return done >= frames }
	var countAt int64 // a counted run is the same frames every time
	if cfg.seconds > 0 {
		limit := time.Duration(cfg.seconds * float64(time.Second))
		stop = func(_ int, elapsed time.Duration) bool { return elapsed >= limit }
		countAt = int64(w.frames * w.sessions())
	}
	if tr != nil {
		m.mark = int(tr.next.Load())
	}
	m.p = m.s.runFrames(ctx, warm, true, countAt, stop)
	return m, nil
}

// run executes one run of one workload and reports its metrics: the
// end-to-end ones from an untraced run, or the per-layer ones from a traced
// run (which first measures untraced, on a stack of its own, to know what
// tracing costs).
func run(ctx context.Context, cfg runConfig) (res result) {
	res.Metrics = map[string]metric{}
	problem := func(format string, args ...any) {
		res.problems = append(res.problems, fmt.Sprintf(format, args...))
	}
	defer func() { res.Correct = len(res.problems) == 0 && res.Failed == 0 && res.Attempted > 0 }()

	goroutines := runtime.NumGoroutine()
	finish := func(m *measured) {
		res.Attempted += m.p.frames
		res.Failed += m.p.failed
		res.problems = append(res.problems, m.p.problems...)
		if err := m.s.close(); err != nil {
			problem("close: %v", err)
		}
	}

	// The untraced measurement comes first in either kind of run. In a traced
	// run it is set up once and is the reference tracing is held against; the
	// two halves share a time-bound run's seconds.
	untracedCfg := cfg
	if cfg.trace {
		untracedCfg.setups = 1
		untracedCfg.seconds = cfg.seconds / 2
	}
	untraced, err := setUpAndMeasure(ctx, untracedCfg, nil)
	if err != nil {
		problem("%v", err)
		return res
	}
	rss := peakRSSMB()
	finish(untraced)
	e2e := newMetricSet(endToEnd)
	endToEndMetrics(e2e, untraced, rss)
	if !cfg.trace {
		res.Metrics = e2e.metrics()
		if n := settledGoroutines(goroutines); n > goroutines {
			problem("goroutines leaked: %d before the run, %d after", goroutines, n)
		}
		return res
	}
	res.reference = e2e.metrics()

	tr, err := newTracer(cfg.spanCap)
	if err != nil {
		problem("%v", err)
		return res
	}
	defer tr.release()
	stopHeap := sampleHeapPeak()
	m, err := setUpAndMeasure(ctx, untracedCfg, tr)
	heapPeak := stopHeap()
	if err != nil {
		problem("%v", err)
		return res
	}
	finish(m)
	spans := tr.recorded()
	if n := tr.dropped.Load(); n > 0 {
		problem("%d spans dropped: raise spanCap", n)
	}
	if cfg.out != "" {
		if err := writeTrace(filepath.Join(cfg.out, cfg.w.name+".trace.json"), spans); err != nil {
			problem("write trace: %v", err)
		}
	}
	after := settledGoroutines(goroutines)
	if after > goroutines {
		problem("goroutines leaked: %d before the run, %d after", goroutines, after)
	}

	set := newMetricSet(perLayer)
	perLayerMetrics(set, m, selfTimes(spans, m.mark))
	set.set("proc.heap_inuse_peak_mb", heapPeak/(1<<20))
	set.set("proc.goroutines_end", float64(after))
	set.set("trace.overhead_frac", 1-ratio(m.p.perSecond(), untraced.p.perSecond()))
	res.Metrics = set.metrics()

	// The simulator runs on a virtual clock: with the frame count fixed, a
	// traced and an untraced run must agree on it to the last digit.
	if cfg.w.volume == "" && cfg.seconds == 0 {
		a, b := untraced.p.after.sim, m.p.after.sim
		if a.MissRate != b.MissRate || a.IOTime != b.IOTime {
			problem("simulator diverged: untraced miss rate %v, I/O %v; traced %v, %v", a.MissRate, a.IOTime, b.MissRate, b.IOTime)
		}
	}
	return res
}

// settledGoroutines waits briefly for stopped goroutines to be reaped and
// returns the count.
func settledGoroutines(baseline int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline || time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sampleHeapPeak tracks the in-use heap during a traced run, twenty times a
// second; the function it returns stops the sampling and gives the peak in bytes.
func sampleHeapPeak() (stop func() float64) {
	quit, done := make(chan struct{}), make(chan float64)
	go func() {
		samples := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		var peak float64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			peak = max(peak, float64(samples[0].Value.Uint64()+samples[1].Value.Uint64()))
			select {
			case <-quit:
				done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(quit)
		return <-done
	}
}

func endToEndMetrics(set *metricSet, m *measured, rssMB float64) {
	p, s := m.p, m.s
	frames := float64(p.frames)
	set.set("frames_per_s", p.perSecond())
	set.set("frame_p50_ms", p.latencyMs(50))
	set.set("frame_p95_ms", p.latencyMs(95))
	// Checking outputs is one CPU-bound thread: its wall time is its CPU time.
	cpu := p.after.cpu - p.before.cpu - p.verify
	set.set("cpu_ms_per_frame", ratio(float64(cpu)/1e6, frames))
	set.set("alloc_kb_per_frame", ratio(float64(p.counted.mem.TotalAlloc-p.before.mem.TotalAlloc)/1024, float64(p.countedFrames)))
	set.set("demand_miss_rate", demandMissRate(s, p))
	set.set("peak_rss_mb", rssMB)
	set.set("setup_s", median(m.setup))
}

// demandMissRate is blocks not resident where they were demanded over blocks
// demanded: at the client's DRAM where there is one, at the server's cache
// for cache-less sessions, and the hierarchy's own figure for the simulator
// (which counts from the viewer's first step, warm-up included).
func demandMissRate(s *stack, p *phase) float64 {
	switch {
	case s.viewer != nil:
		return p.counted.sim.MissRate
	case s.rt != nil:
		reads := p.counted.ooc.DemandReads - p.before.ooc.DemandReads
		hits := p.counted.ooc.DemandHits - p.before.ooc.DemandHits
		return ratio(float64(reads), float64(reads+hits))
	default:
		misses := p.counted.srvCache.Misses - p.before.srvCache.Misses
		hits := p.counted.srvCache.Hits - p.before.srvCache.Hits
		return ratio(float64(misses), float64(misses+hits))
	}
}

func perLayerMetrics(set *metricSet, m *measured, lt layerTimes) {
	p, s := m.p, m.s
	a, b := &p.before, &p.after
	frames := float64(p.frames)
	perFrame := func(v int64) float64 { return ratio(float64(v), frames) }
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }

	if s.viewer == nil {
		set.set("visibility.visible_set_us_per_frame", ratio(us(lt.total[spVisibleSet]), frames))
		set.set("visibility.visible_blocks_per_frame", perFrame(p.visible))
	}

	o0, o1 := a.ooc, b.ooc
	set.set("ooc.frame_self_us_per_frame", ratio(us(lt.self[spOOCFrame]), frames))
	set.set("ooc.demand_hits_per_frame", perFrame(o1.DemandHits-o0.DemandHits))
	set.set("ooc.demand_reads_per_frame", perFrame(o1.DemandReads-o0.DemandReads))
	set.set("ooc.demand_batches_per_frame", perFrame(o1.DemandBatches-o0.DemandBatches))
	set.set("ooc.retries", float64(o1.Retries-o0.Retries))
	set.set("ooc.failed_reads", float64(o1.FailedReads-o0.FailedReads))
	set.set("ooc.degraded_frames", float64(o1.DegradedFrames-o0.DegradedFrames))
	set.set("ooc.prefetch_issued_per_frame", perFrame(o1.PrefetchIssued-o0.PrefetchIssued))
	set.set("ooc.prefetch_executed_per_frame", perFrame(o1.PrefetchExecuted-o0.PrefetchExecuted))
	set.set("ooc.prefetch_deduped_per_frame", perFrame(o1.PrefetchDeduped-o0.PrefetchDeduped))
	set.set("ooc.prefetch_dropped", float64(o1.PrefetchDropped-o0.PrefetchDropped))

	cacheMetrics := func(prefix string, c0, c1 store.CacheCounters) {
		hits, misses := c1.Hits-c0.Hits, c1.Misses-c0.Misses
		set.set(prefix+".hit_ratio", ratio(float64(hits), float64(hits+misses)))
		set.set(prefix+".evictions_per_frame", perFrame(c1.Evictions-c0.Evictions))
	}
	cacheMetrics("store.memcache", a.cache, b.cache)
	set.set("store.memcache.coalesced_per_frame", perFrame(b.cache.Coalesced-a.cache.Coalesced))
	set.set("store.memcache.recycled_ratio", ratio(float64(b.cache.Recycled-a.cache.Recycled), float64(b.cache.Evictions-a.cache.Evictions)))
	cacheMetrics("store.server_cache", a.srvCache, b.srvCache)

	f0, f1 := a.file, b.file
	fileReads := f1.Reads - f0.Reads
	fileNs := lt.total[spFileRead] + lt.total[spFilePrefetch]
	delivered := p.visible // what callers were handed: every demanded block
	set.set("store.blockfile.read_us_per_block", ratio(us(fileNs), float64(fileReads)))
	set.set("store.blockfile.blocks_read_per_frame", perFrame(fileReads))
	set.set("store.blockfile.read_amplification", ratio(float64(fileReads), float64(delivered)))
	set.set("store.blockfile.merged_run_len", ratio(float64(f1.BatchBlocks-f0.BatchBlocks), float64(f1.MergedRuns-f0.MergedRuns)))
	set.set("store.blockfile.buf_reuse_ratio", ratio(float64(f1.BufReuses-f0.BufReuses), float64(f1.BufGets-f0.BufGets)))

	t0, t1 := a.tier, b.tier
	hits, misses := t1.SpillHits-t0.SpillHits, t1.SpillMisses-t0.SpillMisses
	writes := t1.SpillWrites - t0.SpillWrites
	set.set("tier.read_self_us_per_block", ratio(us(lt.self[spTierRead]), float64(b.tierSeamBlocks-a.tierSeamBlocks)))
	set.set("tier.hit_ratio", ratio(float64(hits), float64(hits+misses)))
	set.set("tier.fs.ops_per_hit", ratio(float64(b.fsReadOps-a.fsReadOps), float64(hits)))
	set.set("tier.fs.read_ms_per_frame", ratio(ms(lt.total[spFSRead]), frames))
	set.set("tier.put_enqueue_us", ratio(us(lt.total[spTierPut]), float64(lt.count[spTierPut])))
	set.set("tier.spill_writes_per_frame", perFrame(writes))
	set.set("tier.dropped_ratio", ratio(float64(t1.Dropped-t0.Dropped), float64(b.puts-a.puts)))
	set.set("tier.evictions_per_frame", perFrame(t1.Evictions-t0.Evictions))
	set.set("tier.fs.ops_per_write", ratio(float64(b.fsWriteOps-a.fsWriteOps), float64(writes)))
	set.set("tier.fs.syncs_per_write", ratio(float64(b.fsSyncs-a.fsSyncs), float64(writes)))
	set.set("tier.fs.write_ms_per_frame", ratio(ms(lt.total[spFSWrite]), frames))
	if s.fx != nil {
		blockBytes := float64(s.fx.truth.BlockBytes(0))
		set.set("tier.fs.bytes_written_per_user_byte", ratio(float64(b.fsBytesWritten-a.fsBytesWritten), float64(writes)*blockBytes))
		set.set("tier.bytes_stored_per_user_byte", ratio(float64(t1.OccupancyBytes), float64(t1.Blocks)*blockBytes))
	}
	set.set("tier.disk_faults", float64(t1.DiskFaults-t0.DiskFaults))

	c0, c1 := a.client, b.client
	requests, served := c1.Requests-c0.Requests, c1.BlocksServed-c0.BlocksServed
	// The wire carries no parent, so the server's demand reads of the file
	// are taken out of the client's span by their total, not by interval.
	clientNs := lt.self[spClientRead]
	if s.server != nil {
		clientNs = max(clientNs-lt.total[spFileRead], 0)
	}
	set.set("blocksvc.client.read_self_us_per_block", ratio(us(clientNs), float64(c1.BlocksRequested-c0.BlocksRequested)))
	set.set("blocksvc.client.requests_per_frame", perFrame(requests))
	set.set("blocksvc.client.blocks_per_request", ratio(float64(c1.BlocksRequested-c0.BlocksRequested), float64(requests)))
	set.set("blocksvc.client.wire_bytes_per_block", ratio(float64(c1.BytesReceived-c0.BytesReceived), float64(served)))
	set.set("blocksvc.client.send_view_us", ratio(us(lt.total[spSendView]), float64(lt.count[spSendView])))
	set.set("blocksvc.client.dials", float64(c1.Dials)) // over the reader's life: a redial mid-run shows
	set.set("blocksvc.client.transport_errors", float64(c1.TransportErrors-c0.TransportErrors))
	set.set("blocksvc.client.checksum_errors", float64(c1.ChecksumErrors-c0.ChecksumErrors))
	set.set("blocksvc.client.shed_requests", float64(c1.ShedRequests-c0.ShedRequests))

	s0, s1 := a.server, b.server
	views := float64(s1.ViewUpdates - s0.ViewUpdates)
	set.set("blocksvc.server.prefetch_issued_per_view", ratio(float64(s1.PrefetchIssued-s0.PrefetchIssued), views))
	set.set("blocksvc.server.prefetch_hit_ratio", ratio(float64(s1.PrefetchHits-s0.PrefetchHits), float64(s1.PrefetchExecuted-s0.PrefetchExecuted)))
	set.set("blocksvc.server.prefetch_dropped", float64(s1.PrefetchDropped-s0.PrefetchDropped))
	set.set("blocksvc.server.shed_requests", float64(s1.ShedRequests-s0.ShedRequests))
	set.set("blocksvc.server.predict_dwell_share", ratio(float64(s1.PredictDwell-s0.PredictDwell), views))
	set.set("blocksvc.server.predict_linear_share", ratio(float64(s1.PredictLinear-s0.PredictLinear), views))
	set.set("blocksvc.server.predict_angular_share", ratio(float64(s1.PredictAngular-s0.PredictAngular), views))

	if s.viewer != nil {
		set.set("sim.goto_us_per_step", ratio(us(lt.total[spSimGoto]), frames))
		set.set("sim.visible_blocks_per_step", perFrame(p.visible))
		set.set("sim.prefetches_per_step", perFrame(p.simPrefetches))
		set.set("sim.dram_miss_rate", b.sim.DRAMMissRate)
		set.set("sim.virtual_io_s", (b.sim.IOTime - a.sim.IOTime).Seconds())
		set.set("sim.virtual_prefetch_s", (b.sim.PrefetchTime - a.sim.PrefetchTime).Seconds())
	}

	set.set("proc.gc_cycles", float64(b.mem.NumGC-a.mem.NumGC))
	set.set("proc.gc_pause_ms_total", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6)
	set.set("frame.p99_ms", p.latencyMs(99))
	set.set("frame.max_ms", p.latencyMs(100))
	set.set("trace.coverage", lt.coverage())
}
