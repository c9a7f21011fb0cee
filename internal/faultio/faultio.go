// Package faultio is the fault model for the real-I/O path: the shared
// vocabulary of storage faults (transient, permanent, corruption), a
// deterministic fault injector for testing every failure mode, and a
// context-aware retrier with capped exponential backoff.
//
// The paper's Algorithm 1 assumes every fetch from slow storage succeeds.
// Production storage does not: reads time out, media rots, transfers flip
// bits. This package lets the out-of-core runtime (package ooc) absorb
// transient faults with retries and degrade gracefully — rather than fail a
// whole interactive frame — when a block is permanently lost.
//
// Error classification is errors.Is-compatible: wrap an error with
// Transient or Permanent (or return one of the sentinels) and Retryable
// reports whether a retry can help.
package faultio

import (
	"context"
	"errors"
	"time"

	"repro/internal/grid"
)

// Sentinel fault classes. Injected and storage errors wrap one of these so
// callers can classify with errors.Is.
var (
	// ErrTransient marks a fault that a retry may clear (timeout, dropped
	// request, in-transit corruption).
	ErrTransient = errors.New("faultio: transient fault")
	// ErrPermanent marks a fault retrying cannot clear (missing block,
	// media failure, invalid request). Retryable returns false for it.
	ErrPermanent = errors.New("faultio: permanent fault")
	// ErrChecksum marks detected data corruption. It composes with the
	// other two: on-disk rot is permanent, in-transit corruption transient.
	ErrChecksum = errors.New("faultio: checksum mismatch")
)

// marked wraps an error with an additional sentinel so both the original
// error chain and the fault class answer errors.Is.
type marked struct {
	err  error
	mark error
}

func (m *marked) Error() string   { return m.err.Error() }
func (m *marked) Unwrap() []error { return []error{m.err, m.mark} }

// Transient marks err as retryable. Returns nil for nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &marked{err: err, mark: ErrTransient}
}

// Permanent marks err as not retryable. Returns nil for nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &marked{err: err, mark: ErrPermanent}
}

// Retryable reports whether a retry could plausibly clear err. Everything
// is considered retryable except nil, explicit permanent faults, and
// cancellation (a canceled caller does not want more attempts; a per-try
// deadline expiry, by contrast, is exactly what retries are for).
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrPermanent) || errors.Is(err, context.Canceled) {
		return false
	}
	return true
}

// BlockReader is the read side of a block store, the same three methods as
// store.BlockReader (store imports faultio, so faultio spells them out):
// a single read, a batch that carries the caller's context, and the
// hand-back of decoded buffers. store.BlockFile and blocksvc.RemoteReader
// satisfy it; Injector wraps one.
type BlockReader interface {
	ReadBlock(id grid.BlockID) ([]float32, error)
	ReadBlocks(ctx context.Context, ids []grid.BlockID) ([][]float32, []error)
	RecycleBlockBuf([]float32)
}

// Checksummer is optionally implemented by readers that store per-block
// checksums (bvol v2 files). The Injector uses it to make injected payload
// corruption detectable, the way a checksum-verifying transport would.
type Checksummer interface {
	// BlockChecksum returns the stored CRC32C for the block, and whether
	// the store has one.
	BlockChecksum(id grid.BlockID) (uint32, bool)
}

// sleep waits d or until ctx is done, whichever is first.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// rng is a splitmix64 generator: tiny, seedable, and deterministic, so
// injected fault sequences are reproducible from a seed alone.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
