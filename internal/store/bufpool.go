package store

import "sync"

// maxFreeBufs bounds a BufPool and a MemCache's retired list; beyond it,
// returned buffers are dropped for the GC.
const maxFreeBufs = 64

// BufPool is a bounded free list of decoded-block buffers — the one
// implementation behind every BlockBufRecycler (BlockFile, blocksvc's
// RemoteReader, the spill tier): eviction Puts a victim's slice, and a
// steady miss stream Gets it back to decode into instead of allocating. The
// zero value is ready to use; safe for concurrent use.
type BufPool struct {
	mu   sync.Mutex
	free [][]float32
}

// Get returns a buffer of exactly n float32s and whether it was reused.
// Only the most recent few are scanned: with uniform block geometry every
// free buffer fits, and with mixed sizes a too-small candidate is left for
// smaller blocks.
func (p *BufPool) Get(n int) (buf []float32, reused bool) {
	p.mu.Lock()
	for i := len(p.free) - 1; i >= 0 && i >= len(p.free)-8; i-- {
		if cap(p.free[i]) >= n {
			buf = p.free[i]
			p.free = append(p.free[:i], p.free[i+1:]...)
			p.mu.Unlock()
			return buf[:n], true
		}
	}
	p.mu.Unlock()
	return make([]float32, n), false
}

// Put hands a buffer back for reuse and reports whether the pool kept it.
// The caller must guarantee no live reference to the slice remains: its
// contents will be overwritten.
func (p *BufPool) Put(vals []float32) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cap(vals) == 0 || len(p.free) >= maxFreeBufs {
		return false
	}
	p.free = append(p.free, vals)
	return true
}
