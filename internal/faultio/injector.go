package faultio

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/f32le"
	"repro/internal/grid"
)

// InjectorConfig sets the fault mix. All rates are probabilities in [0, 1]
// drawn independently per read.
type InjectorConfig struct {
	// Seed makes the fault sequence deterministic: the decision for the
	// n-th read of block b depends only on (Seed, b, n), not on goroutine
	// interleaving across blocks.
	Seed uint64
	// FailRate is the probability a read fails outright before touching
	// the underlying store.
	FailRate float64
	// PermanentFrac is the fraction of injected failures that are
	// permanent (not retryable); the rest are transient.
	PermanentFrac float64
	// CorruptRate is the probability a successful read's payload gets one
	// bit flipped. If the underlying reader stores checksums (bvol v2),
	// the corruption is detected and returned as a transient ErrChecksum
	// fault; otherwise it is silent — exactly the hazard checksums exist
	// to close.
	CorruptRate float64
	// Latency and LatencyJitter add fixed plus uniform-random delay to
	// every read, honoring context cancellation (this is how per-read
	// deadlines are exercised in tests).
	Latency       time.Duration
	LatencyJitter time.Duration
	// FailBlocks always fail permanently, modeling lost or unreadable
	// blocks.
	FailBlocks []grid.BlockID
}

// InjectorStats counts injected activity.
type InjectorStats struct {
	Reads         int64 // reads that reached the injector
	Transient     int64 // injected transient failures
	Permanent     int64 // injected permanent failures (incl. FailBlocks)
	Corrupted     int64 // payloads bit-flipped
	CorruptCaught int64 // corruptions detected via stored checksums
	CorruptSilent int64 // corruptions passed through undetected (reader without checksums)
}

// Injector wraps a BlockReader with deterministic, seed-driven fault
// injection. It is a BlockReader itself; the context of ReadBlocks bounds
// each block's injected latency and the inner read under it, so per-read
// deadlines cut both short. Safe for concurrent use.
type Injector struct {
	r     BlockReader
	cfg   InjectorConfig
	ck    Checksummer // non-nil when r stores checksums
	fail  map[grid.BlockID]bool
	inert bool // config injects nothing: batches may pass through

	mu    sync.Mutex
	seq   map[grid.BlockID]uint64 // per-block read counter
	stats InjectorStats
}

// NewInjector wraps r. A zero config injects nothing and passes reads
// through (plus zero latency), so an Injector can stay in the stack
// permanently and be enabled by configuration.
func NewInjector(r BlockReader, cfg InjectorConfig) *Injector {
	in := &Injector{r: r, cfg: cfg, seq: make(map[grid.BlockID]uint64)}
	in.ck, _ = r.(Checksummer)
	in.inert = cfg.FailRate == 0 && cfg.CorruptRate == 0 &&
		cfg.Latency == 0 && cfg.LatencyJitter == 0 && len(cfg.FailBlocks) == 0
	if len(cfg.FailBlocks) > 0 {
		in.fail = make(map[grid.BlockID]bool, len(cfg.FailBlocks))
		for _, id := range cfg.FailBlocks {
			in.fail[id] = true
		}
	}
	return in
}

// ReadBlock implements BlockReader: one block under the fault mix, with no
// deadline.
func (in *Injector) ReadBlock(id grid.BlockID) ([]float32, error) {
	return in.read(context.Background(), id)
}

// ReadBlocks serves a batch with per-block results. With any fault
// configured it splits the batch into individual reads: every block gets
// its own fault draw, latency, and error, exactly as if it had been read
// alone — batching upstream must never change fault semantics. (The
// underlying store's merged sequential reads are deliberately forfeited
// then; injection means testing, where per-block determinism matters more
// than I/O merging.) A zero config injects nothing, so an injector left in
// the stack permanently forwards batches intact and keeps the merged-I/O
// fast path.
func (in *Injector) ReadBlocks(ctx context.Context, ids []grid.BlockID) ([][]float32, []error) {
	if in.inert {
		in.count(func(s *InjectorStats) { s.Reads += int64(len(ids)) })
		return in.r.ReadBlocks(ctx, ids)
	}
	vals := make([][]float32, len(ids))
	errs := make([]error, len(ids))
	for i, id := range ids {
		vals[i], errs[i] = in.read(ctx, id)
	}
	return vals, errs
}

// RecycleBlockBuf forwards decode-buffer recycling to the underlying reader,
// so an injector in the stack does not defeat buffer reuse.
func (in *Injector) RecycleBlockBuf(vals []float32) { in.r.RecycleBlockBuf(vals) }

// read reads one block, applying the configured fault mix. ctx cuts short
// the injected latency and the inner read under it (a batch of one), so a
// per-attempt deadline bounds the whole attempt with an injector in the
// stack.
func (in *Injector) read(ctx context.Context, id grid.BlockID) ([]float32, error) {
	r := in.draw(id)
	if d := in.cfg.Latency + time.Duration(r.float()*float64(in.cfg.LatencyJitter)); d > 0 {
		if err := sleep(ctx, d); err != nil {
			return nil, err
		}
	} else if err := ctx.Err(); err != nil {
		return nil, err
	}
	if in.fail[id] {
		in.count(func(s *InjectorStats) { s.Permanent++ })
		return nil, fmt.Errorf("faultio: block %d unreadable: %w", id, ErrPermanent)
	}
	if r.float() < in.cfg.FailRate {
		if r.float() < in.cfg.PermanentFrac {
			in.count(func(s *InjectorStats) { s.Permanent++ })
			return nil, fmt.Errorf("faultio: injected permanent failure on block %d: %w", id, ErrPermanent)
		}
		in.count(func(s *InjectorStats) { s.Transient++ })
		return nil, fmt.Errorf("faultio: injected transient failure on block %d: %w", id, ErrTransient)
	}
	got, errs := in.r.ReadBlocks(ctx, []grid.BlockID{id})
	if errs[0] != nil {
		return nil, errs[0]
	}
	vals := got[0]
	if len(vals) > 0 && r.float() < in.cfg.CorruptRate {
		return in.corrupt(r, id, vals)
	}
	return vals, nil
}

// corrupt flips one bit of the payload. With a checksummed store the flip
// is caught (verified by recomputing the CRC the way a transport layer
// would) and surfaced as a transient checksum fault; without one the
// corrupted data is returned as if nothing happened.
func (in *Injector) corrupt(r rng, id grid.BlockID, vals []float32) ([]float32, error) {
	bad := make([]float32, len(vals))
	copy(bad, vals)
	i := int(r.next() % uint64(len(bad)))
	bit := uint32(1) << (r.next() % 32)
	bad[i] = math.Float32frombits(math.Float32bits(bad[i]) ^ bit)
	if in.ck != nil {
		if want, ok := in.ck.BlockChecksum(id); ok && f32le.Checksum(f32le.Append(nil, bad)) != want {
			in.count(func(s *InjectorStats) { s.Corrupted++; s.CorruptCaught++ })
			return nil, fmt.Errorf("faultio: injected corruption on block %d detected: %w",
				id, Transient(ErrChecksum))
		}
	}
	in.count(func(s *InjectorStats) { s.Corrupted++; s.CorruptSilent++ })
	return bad, nil
}

// draw returns a generator whose sequence depends only on the seed, the
// block, and how many times that block has been read, so fault decisions
// are reproducible regardless of cross-block goroutine interleaving.
func (in *Injector) draw(id grid.BlockID) rng {
	in.mu.Lock()
	n := in.seq[id]
	in.seq[id] = n + 1
	in.stats.Reads++
	in.mu.Unlock()
	return rng{s: in.cfg.Seed ^ (uint64(id)+1)*0x9E3779B97F4A7C15 ^ (n+1)*0xBF58476D1CE4E5B9}
}

func (in *Injector) count(f func(*InjectorStats)) {
	in.mu.Lock()
	f(&in.stats)
	in.mu.Unlock()
}

// Stats returns a snapshot of injected activity.
func (in *Injector) Stats() InjectorStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}
