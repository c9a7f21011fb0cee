// Package memhier simulates the paper's multi-level memory hierarchy: cache
// levels (DRAM, SSD) in front of an infinite backing store (HDD). Each level
// has a byte capacity, a replacement policy, and a device cost model; the
// package accounts hits, misses, and simulated I/O time per level.
//
// Read path: a block request probes levels fastest-first. On a hit the block
// is touched; on a miss at every level the block is read from the backing
// store. The request is charged the transfer time of the deepest device the
// block was found on (the dominant cost term), and the block is installed
// into every level above the hit, evicting victims chosen by each level's
// policy. Evictions are free: blocks are read-only and always recoverable
// from the backing store.
package memhier

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/grid"
	"repro/internal/storage"
)

// LevelConfig describes one cache level.
type LevelConfig struct {
	Device   storage.Device
	Capacity int64 // bytes
	Policy   cache.Policy
}

// Config describes a hierarchy: cache levels ordered fastest-first, plus the
// backing store device that always holds every block.
type Config struct {
	Levels  []LevelConfig
	Backing storage.Device
}

// Level is one cache level at runtime: the shared residency and
// replacement bookkeeping (cache.Level: Capacity, Policy, Evictions,
// Contains, Used, Len) plus the device cost model and the hit/miss
// accounting the simulator adds.
type Level struct {
	*cache.Level
	Device storage.Device

	Hits   int64
	Misses int64
}

// MissRate returns misses / (hits + misses), or 0 before any access.
func (l *Level) MissRate() float64 {
	total := l.Hits + l.Misses
	if total == 0 {
		return 0
	}
	return float64(l.Misses) / float64(total)
}

// AccessResult describes one block request.
type AccessResult struct {
	// FoundLevel is the index of the level that served the request;
	// len(levels) means the backing store.
	FoundLevel int
	// Time is the simulated transfer cost charged to the request.
	Time time.Duration
}

// Hierarchy is a simulated multi-level cache hierarchy.
type Hierarchy struct {
	levels  []*Level
	backing storage.Device
	sizeOf  func(grid.BlockID) int64
	sizes   []int64 // sizeOf's answers by block ID; 0: not asked yet

	// PrefetchTime accumulates the cost of Prefetch calls, kept separate
	// from demand I/O because the paper overlaps it with rendering.
	PrefetchTime time.Duration
	// PrefetchBatch amortizes per-operation device latency across
	// prefetch reads (default 16): prefetchers issue blocks in large
	// asynchronous elevator-order batches, while demand misses are
	// synchronous random reads paying the full seek latency.
	PrefetchBatch int
	// DemandTime accumulates the cost of Get calls (the paper's I/O time).
	DemandTime time.Duration
}

// New builds a hierarchy. sizeOf must return the byte size of any block the
// caller will request, and must be deterministic: the hierarchy asks it once
// per block and remembers the answer.
func New(cfg Config, sizeOf func(grid.BlockID) int64) (*Hierarchy, error) {
	if len(cfg.Levels) == 0 {
		return nil, fmt.Errorf("memhier: no cache levels")
	}
	if sizeOf == nil {
		return nil, fmt.Errorf("memhier: nil sizeOf")
	}
	h := &Hierarchy{
		backing:       cfg.Backing,
		sizeOf:        sizeOf,
		PrefetchBatch: 16,
	}
	for i, lc := range cfg.Levels {
		if lc.Capacity <= 0 {
			return nil, fmt.Errorf("memhier: level %d capacity %d", i, lc.Capacity)
		}
		if lc.Policy == nil {
			return nil, fmt.Errorf("memhier: level %d has nil policy", i)
		}
		h.levels = append(h.levels, &Level{Level: cache.NewLevel(lc.Capacity, lc.Policy), Device: lc.Device})
	}
	return h, nil
}

// Levels returns the cache levels, fastest first. Callers may read stats but
// must not mutate residency directly.
func (h *Hierarchy) Levels() []*Level { return h.levels }

// NumLevels returns the number of cache levels (excluding backing store).
func (h *Hierarchy) NumLevels() int { return len(h.levels) }

// SetEvictFilter restricts evictions at the given level to blocks satisfying
// allowed (nil clears the filter). The paper's Algorithm 1 uses this to
// replace only blocks whose last-use time predates the current view point.
// With strict set, an install that would require evicting a disallowed
// block is skipped entirely instead of falling back to an unrestricted
// victim; demand fetches should leave strict unset so they always progress.
func (h *Hierarchy) SetEvictFilter(level int, allowed func(grid.BlockID) bool, strict bool) {
	h.levels[level].SetEvictFilter(allowed, strict)
}

// Get simulates a demand request for the block: probes levels fastest-first,
// charges the transfer cost to DemandTime, and installs the block into
// missed levels above the hit.
func (h *Hierarchy) Get(id grid.BlockID) AccessResult {
	res := h.access(id, true)
	h.DemandTime += res.Time
	return res
}

// Prefetch moves a block up the hierarchy exactly like Get but accounts its
// cost to PrefetchTime and does not perturb hit/miss statistics: prefetches
// are speculative work the paper overlaps with rendering, not part of the
// miss rate.
func (h *Hierarchy) Prefetch(id grid.BlockID) AccessResult {
	res := h.access(id, false)
	h.PrefetchTime += res.Time
	return res
}

func (h *Hierarchy) access(id grid.BlockID, demand bool) AccessResult {
	found := len(h.levels) // backing store by default
	for i, l := range h.levels {
		if l.Touch(id) {
			if demand {
				l.Hits++
			}
			found = i
			break
		}
		if demand {
			l.Misses++
		}
	}

	size := h.SizeOf(id)
	var t time.Duration
	if found == 0 {
		// Fast-memory hit: the data is already where the processing unit
		// needs it; no transfer is charged.
		return AccessResult{FoundLevel: 0, Time: 0}
	}
	src := h.backing
	if found < len(h.levels) {
		src = h.levels[found].Device
	}
	if demand {
		t = src.TransferTime(size)
	} else {
		t = src.TransferTimeBatched(size, h.PrefetchBatch)
	}
	// Install into every level above the hit. A block larger than a level
	// is not kept there: the request already paid the transfer.
	for i := found - 1; i >= 0; i-- {
		h.levels[i].Admit(id, cache.Entry{Size: size})
	}
	return AccessResult{FoundLevel: found, Time: t}
}

// Preload installs a block at the given level and every level below it
// without charging time or touching statistics: the paper performs
// importance-based pre-loading as a one-time preprocessing step before
// interaction begins.
func (h *Hierarchy) Preload(level int, id grid.BlockID) {
	size := h.SizeOf(id)
	for i := level; i < len(h.levels); i++ {
		h.levels[i].Admit(id, cache.Entry{Size: size})
	}
}

// Contains reports whether the block is resident at the given level.
func (h *Hierarchy) Contains(level int, id grid.BlockID) bool {
	return h.levels[level].Contains(id)
}

// Fits reports whether the block could be installed at the level without
// evicting anything (already-resident blocks trivially fit).
func (h *Hierarchy) Fits(level int, id grid.BlockID) bool {
	l := h.levels[level]
	return l.Contains(id) || l.Fits(h.SizeOf(id))
}

// SizeOf returns the byte size of a block per the hierarchy's size model.
func (h *Hierarchy) SizeOf(id grid.BlockID) int64 {
	if uint(id) < uint(len(h.sizes)) && h.sizes[id] != 0 {
		return h.sizes[id]
	}
	size := h.sizeOf(id)
	if id >= 0 {
		if n := int(id) + 1; n > len(h.sizes) {
			h.sizes = append(h.sizes, make([]int64, n-len(h.sizes))...)
		}
		h.sizes[id] = size
	}
	return size
}

// LevelCapacity returns the byte capacity of a cache level.
func (h *Hierarchy) LevelCapacity(level int) int64 { return h.levels[level].Capacity }

// TotalMissRate returns total misses over total probes across all levels —
// the paper's "total miss rate across DRAM, SSD and HDD".
func (h *Hierarchy) TotalMissRate() float64 {
	var hits, misses int64
	for _, l := range h.levels {
		hits += l.Hits
		misses += l.Misses
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(misses) / float64(hits+misses)
}

// StandardConfig returns the paper's experimental hierarchy for a dataset of
// totalBytes: DRAM and SSD cache levels in front of an HDD backing store,
// with each level sized to ratio × the capacity of the level below (§V-A:
// ratio 0.5 means SSD = 50% and DRAM = 25% of the dataset size). policies
// supplies a fresh policy per level.
func StandardConfig(totalBytes int64, ratio float64, policies cache.Factory) Config {
	ssd := int64(float64(totalBytes) * ratio)
	dram := int64(float64(ssd) * ratio)
	if ssd < 1 {
		ssd = 1
	}
	if dram < 1 {
		dram = 1
	}
	return Config{
		Levels: []LevelConfig{
			{Device: storage.DRAM(), Capacity: dram, Policy: policies()},
			{Device: storage.SSD(), Capacity: ssd, Policy: policies()},
		},
		Backing: storage.HDD(),
	}
}
