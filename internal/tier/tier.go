// Package tier provides the persistent SSD spill tier that sits under
// store.MemCache in the remote-rendering path: DRAM miss → SSD spill lookup
// → remote fetch. Blocks enter the tier by write-behind — MemCache's
// eviction callback hands each victim's decoded voxels to Put, which
// encodes them under the caller's lock (a fast copy) and spills them from
// an asynchronous worker, so a block fetched over the network once is
// re-served from local flash for the rest of the session.
//
// The tier is crash-safe and disk-fault tolerant by construction:
//
//   - Every spill file carries a CRC-32C over its payload and is published
//     by temp-file + fsync + rename, so a crash at any instant leaves only
//     complete entries, detectably torn entries, and stray temp files.
//   - Open rescans the cache directory, rebuilds the index from intact
//     files, quarantines torn/corrupt ones, and reclaims temp debris.
//   - Runtime disk faults (failed writes, syncs, renames, ENOSPC, read
//     corruption) degrade service instead of failing it: the faulty
//     operation is dropped, counted, and after threshold consecutive
//     faults a circuit breaker trips and the tier gets out of the way —
//     the client keeps rendering from DRAM + remote with zero errors.
//
// Replacement is the same code as in every other tier: the index of resident
// spill files is a cache.Level, like the simulator's memhier levels and the
// DRAM MemCache, so the paper's application-aware policy and the LRU baseline
// run unchanged in either stack. The tier adds what is specific to files —
// it makes room, writes the file with the lock released, then adds the entry
// — and the parity test in this package pins the equivalence.
package tier

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/cache"
	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/store"
)

const (
	// quarantineDir is the subdirectory (under Config.Dir) that torn and
	// corrupt spill files are moved into for post-mortem inspection.
	quarantineDir = "quarantine"
	// queueDepth is the spill queue's length. Puts arriving on a full queue
	// are dropped (and counted) rather than blocking the DRAM cache's
	// eviction path. bench/'s warm fill drains every 32 Puts and fails on a
	// drop, so this must stay at least 32.
	queueDepth = 64
	// The disk breaker trips after breakerThreshold consecutive faults and
	// lets one probe through per window, from breakerBase doubling to
	// breakerMax.
	breakerThreshold = 5
	breakerBase      = 100 * time.Millisecond
	breakerMax       = 5 * time.Second
	// maxOpenSpills bounds the open set: the read descriptors the tier keeps
	// across hits, so that a hit is two positioned reads and no open or
	// close. Past it the least recently read file loses its descriptor, and a
	// hit on it opens and closes the file as every hit once did. bench/'s
	// tier_orbit_128k keeps 512 entries resident, inside the bound.
	maxOpenSpills = 1024
)

// Config configures a Tier. Dir and Capacity are required.
type Config struct {
	// Dir is the spill directory, created if absent. It must be dedicated
	// to one Tier; foreign files are ignored but temp debris is reclaimed.
	Dir string
	// Capacity is the byte budget for spill files (headers included).
	Capacity int64
	// Policy is the replacement policy; nil defaults to LRU. The policy
	// must be empty and is owned by the tier afterwards.
	Policy cache.Policy
	// FS is the filesystem the tier operates through; nil defaults to the
	// real one (faultio.OSFS). Tests substitute a faultio.FaultFS.
	FS faultio.FS
}

// spillReq is one encoded block queued for the spill worker; a request
// with done set is a Drain barrier instead.
type spillReq struct {
	id   grid.BlockID
	data []byte
	done chan struct{}
}

// Tier is the persistent spill tier. Safe for concurrent use.
type Tier struct {
	dir  string
	fsys faultio.FS
	br   *breaker.Breaker

	mu  sync.Mutex
	lvl *cache.Level // resident block -> spill file size, byte budget, replacement

	// The open set, under mu: open is a level of unit entries under LRU whose
	// residents are exactly the blocks fds holds a read descriptor for, each
	// of them resident in lvl too. A descriptor leaves the set — an eviction
	// from either level, a failed read, Close — under mu and is closed once
	// the lock is released; os.File's reference count lets a read already
	// under way on it finish first, and a read begun after it gets
	// os.ErrClosed. evicted carries the one descriptor a hold's MakeRoom
	// pushes out (entries are unit-sized, and the bound falls only in Close,
	// after every descriptor is gone) from open's OnEvict back to hold.
	open    *cache.Level
	fds     []faultio.File // by block id
	evicted faultio.File

	// qmu guards sends on queue against its close: senders hold it shared,
	// Close exclusively while it sets closed and closes the channel. The
	// worker never takes it, so a sender may block on a full queue.
	qmu    sync.RWMutex
	closed bool
	queue  chan spillReq

	// victims collects the blocks lvl evicts (its OnEvict, under mu), and
	// shut the descriptors the open set held for them, until dropVictims
	// closes and removes their files outside the lock. Only rescan and the
	// one spill worker make room, so neither needs a lock of its own.
	victims []grid.BlockID
	shut    []faultio.File

	wg sync.WaitGroup

	// The read path's buffers, reused so a steady stream of spill hits
	// allocates nothing: bufs holds the block slices the DRAM cache hands
	// back (Reader.RecycleBlockBuf), which a spill file's payload is read
	// straight into; hdrs the 20-byte scratches a header is read into (a
	// local array would escape through the io.ReaderAt interface and cost
	// an allocation a hit). A free list, not a sync.Pool, whose Get can miss
	// on another P: a hit allocates nothing whatever the scheduler did.
	bufs  store.BufPool
	hdrMu sync.Mutex
	hdrs  []*[spillHeaderSize]byte // at most maxFreeHdrs

	spillWrites   atomic.Int64
	spillHits     atomic.Int64
	spillMisses   atomic.Int64
	readBypassed  atomic.Int64
	writeBypassed atomic.Int64
	diskFaults    atomic.Int64
	quarantined   atomic.Int64
	tmpReclaimed  atomic.Int64
	dropped       atomic.Int64
	brOpens       atomic.Int64
	brRecoveries  atomic.Int64
}

// Counters is a snapshot of tier activity.
type Counters struct {
	SpillWrites    int64 // blocks durably spilled to disk
	SpillHits      int64 // Gets served from the spill tier
	SpillMisses    int64 // Gets that fell through (absent, bypassed, or faulted)
	ReadBypassed   int64 // Gets skipped because the breaker was open
	WriteBypassed  int64 // spills skipped because the breaker was open
	DiskFaults     int64 // file operations that failed or returned bad bytes
	Quarantined    int64 // torn/corrupt spill files moved aside
	TmpReclaimed   int64 // stray temp files removed by rescan
	Evictions      int64 // blocks pushed out by the replacement policy
	Dropped        int64 // spill requests dropped (queue full or oversized)
	BreakerOpens   int64 // times the disk breaker tripped
	BreakerRecov   int64 // times a probe closed it again
	Blocks         int64 // resident spill entries
	OccupancyBytes int64 // bytes of resident spill files
}

// Open creates (or reopens) the spill tier rooted at cfg.Dir. Reopening
// rescans the directory: intact entries are indexed, torn or corrupt ones
// quarantined, temp debris reclaimed. Only directory-level failures (the
// dir cannot be created or listed) are errors; per-file damage is absorbed.
func Open(cfg Config) (*Tier, error) {
	if cfg.Dir == "" {
		return nil, errors.New("tier: empty cache dir")
	}
	if cfg.Capacity <= 0 {
		return nil, errors.New("tier: capacity must be positive")
	}
	if cfg.Policy == nil {
		cfg.Policy = cache.NewLRU()
	}
	if cfg.FS == nil {
		cfg.FS = faultio.OSFS{}
	}
	if err := cfg.FS.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	t := &Tier{
		dir:   cfg.Dir,
		fsys:  cfg.FS,
		br:    breaker.New(breakerThreshold, breakerBase, breakerMax),
		lvl:   cache.NewLevel(cfg.Capacity, cfg.Policy),
		open:  cache.NewLevel(maxOpenSpills, cache.NewLRU()),
		queue: make(chan spillReq, queueDepth),
	}
	t.lvl.OnEvict = func(id grid.BlockID, _ cache.Entry) {
		t.victims = append(t.victims, id)
		if f := t.drop(id); f != nil {
			t.shut = append(t.shut, f)
		}
	}
	t.open.OnEvict = func(id grid.BlockID, _ cache.Entry) {
		t.evicted, t.fds[id] = t.fds[id], nil
	}
	if err := t.rescan(); err != nil {
		return nil, err
	}
	t.wg.Add(1)
	go t.worker()
	return t, nil
}

// rescan rebuilds the index from the spill directory after a restart. Each
// file is checked by the read Get would serve it with, and its voxels go
// back to the buffer pool.
func (t *Tier) rescan() error {
	ents, err := t.fsys.ReadDir(t.dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue // the quarantine subdir
		}
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A crash between staging and rename: never published, safe to
			// reclaim.
			if t.fsys.Remove(filepath.Join(t.dir, name)) == nil {
				t.tmpReclaimed.Add(1)
			}
			continue
		}
		id, ok := parseSpillName(name)
		if !ok {
			continue // foreign file: not ours to touch
		}
		info, err := e.Info()
		// A file over the whole budget can never have been resident (spill
		// drops a block that size): it is set aside unread.
		if err == nil && info.Size() <= t.lvl.Capacity {
			var vals []float32
			if vals, err = t.load(name, id, info.Size()); err == nil {
				t.bufs.Put(vals)
			}
		}
		if err != nil || info.Size() > t.lvl.Capacity {
			// Torn mid-crash or rotten on disk — either way not servable.
			t.quarantine(name)
			continue
		}
		// A reopen with a smaller budget sheds the excess as it goes.
		t.lvl.Admit(id, cache.Entry{Size: info.Size()})
	}
	t.dropVictims()
	return nil
}

// load reads block id from the spill file name, whose size the index knows,
// through a descriptor of its own: rescan's check of a file, by the read a
// hit is served with.
func (t *Tier) load(name string, id grid.BlockID, size int64) ([]float32, error) {
	f, err := t.fsys.Open(filepath.Join(t.dir, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return t.readSpill(f, id, size)
}

// quarantine moves a damaged spill file into the quarantine subdirectory
// (falling back to deletion if the move itself fails) and counts it.
func (t *Tier) quarantine(name string) {
	t.quarantined.Add(1)
	src := filepath.Join(t.dir, name)
	qdir := filepath.Join(t.dir, quarantineDir)
	if err := t.fsys.MkdirAll(qdir, 0o755); err == nil {
		if t.fsys.Rename(src, filepath.Join(qdir, name)) == nil {
			return
		}
	}
	t.fsys.Remove(src)
}

// Get serves a block from the spill tier. ok is false when the block is
// not resident, the breaker has the tier bypassed, or the file turned out
// unreadable — the caller falls through to the next tier; Get never errors.
func (t *Tier) Get(id grid.BlockID) (vals []float32, ok bool) {
	t.mu.Lock()
	e, resident := t.lvl.Peek(id)
	var f faultio.File
	if uint(id) < uint(len(t.fds)) {
		f = t.fds[id]
	}
	t.mu.Unlock()
	if !resident {
		t.spillMisses.Add(1)
		return nil, false
	}
	allowed, _ := t.br.Allow(time.Now())
	if !allowed {
		t.readBypassed.Add(1)
		t.spillMisses.Add(1)
		return nil, false
	}
	vals, err := t.fetch(id, f, e.Size)
	if err != nil {
		t.spillMisses.Add(1)
		// Benign races: the entry was evicted between the index check and
		// the open, or each try's descriptor was closed under its read — by
		// an eviction, or the open set making room, so the entry may well be
		// resident still. The device itself answered fine.
		raced := errors.Is(err, os.ErrClosed)
		still := false
		if !raced {
			// Not an eviction: the policy did not choose this entry to leave.
			t.mu.Lock()
			_, still = t.lvl.Remove(id)
			f := t.drop(id)
			t.mu.Unlock()
			if f != nil {
				f.Close()
			}
			raced = !still && errors.Is(err, fs.ErrNotExist)
		}
		if raced {
			if t.br.Success() {
				t.brRecoveries.Add(1)
			}
			return nil, false
		}
		// Read corruption counts against the device, where blocksvc treats a
		// checksum fault as proof its endpoint answers: a disk returning
		// rotten bytes block after block is the one to stop trusting. One
		// corrupt file cannot trip the breaker alone — it is quarantined on
		// this first read and never retried.
		t.diskFaults.Add(1)
		if t.br.Failure(time.Now()) {
			t.brOpens.Add(1)
		}
		if still {
			t.quarantine(spillName(id))
		}
		return nil, false
	}
	if t.br.Success() {
		t.brRecoveries.Add(1)
	}
	t.mu.Lock()
	t.lvl.Touch(id) // if it is still resident
	t.open.Touch(id)
	t.mu.Unlock()
	t.spillHits.Add(1)
	return vals, true
}

// fetch reads resident block id, size bytes on disk, through f, the
// descriptor the open set holds for it, or — when it holds none — through
// one it opens and offers to the set. A read whose descriptor was closed
// under it (os.ErrClosed) is tried once more through a fresh one.
func (t *Tier) fetch(id grid.BlockID, f faultio.File, size int64) (vals []float32, err error) {
	for try := 0; ; try++ {
		var own faultio.File // a descriptor the set did not take
		if f == nil {
			if f, err = t.fsys.Open(filepath.Join(t.dir, spillName(id))); err != nil {
				return nil, err
			}
			own = t.hold(id, f)
		}
		vals, err = t.readSpill(f, id, size)
		if own != nil {
			own.Close()
		}
		if try > 0 || !errors.Is(err, os.ErrClosed) {
			return vals, err
		}
		f = nil
	}
}

// hold offers f, just opened on block id's file, to the open set, and
// returns f back for the caller to close after its read when the set does
// not take it: the entry left lvl since the caller looked, another read
// got a descriptor in first, or the tier is closed. A descriptor the set
// pushes out to make room is closed here, once the lock is released.
func (t *Tier) hold(id grid.BlockID, f faultio.File) faultio.File {
	t.mu.Lock()
	if !t.lvl.Contains(id) || t.open.Contains(id) || !t.open.MakeRoom(id, 1) {
		t.mu.Unlock()
		return f
	}
	t.open.Add(id, cache.Entry{Size: 1})
	if n := int(id) + 1; n > len(t.fds) {
		t.fds = append(t.fds, make([]faultio.File, n-len(t.fds))...)
	}
	t.fds[id] = f
	out := t.evicted
	t.evicted = nil
	t.mu.Unlock()
	if out != nil {
		out.Close()
	}
	return nil
}

// drop takes block id's descriptor out of the open set, under t.mu, and
// returns it (nil when the set held none) for the caller to close once the
// lock is released.
func (t *Tier) drop(id grid.BlockID) faultio.File {
	if _, ok := t.open.Remove(id); !ok {
		return nil
	}
	f := t.fds[id]
	t.fds[id] = nil
	return f
}

// Put offers a block for spilling. It is designed to run inside
// MemCache.OnEvict — under the DRAM cache's lock — so it only encodes
// (one copy) and enqueues; the disk work, including the breaker gate,
// happens on the spill worker. Blocks already resident, arriving on a full
// queue, or dequeued while the breaker is open are skipped, never blocked
// on.
func (t *Tier) Put(id grid.BlockID, vals []float32) {
	if len(vals) == 0 {
		return
	}
	t.mu.Lock()
	resident := t.lvl.Contains(id)
	t.mu.Unlock()
	if resident {
		return // already spilled; the on-disk copy is still valid
	}
	req := spillReq{id: id, data: encodeSpill(id, vals)}
	t.qmu.RLock()
	defer t.qmu.RUnlock()
	if t.closed {
		return
	}
	select {
	case t.queue <- req:
	default:
		t.dropped.Add(1)
	}
}

// worker drains the spill queue until Close.
func (t *Tier) worker() {
	defer t.wg.Done()
	for req := range t.queue {
		if req.done != nil {
			close(req.done)
			continue
		}
		t.spill(req)
	}
}

// spill writes one queued block to disk with the crash-safe discipline:
// temp file, full write, fsync, atomic rename. Any fault feeds the breaker
// and drops the block — spilling is best-effort by design.
func (t *Tier) spill(req spillReq) {
	allowed, _ := t.br.Allow(time.Now())
	if !allowed {
		t.writeBypassed.Add(1)
		return
	}
	size := int64(len(req.data))
	t.mu.Lock()
	if t.lvl.Contains(req.id) || size > t.lvl.Capacity {
		t.mu.Unlock()
		if size > t.lvl.Capacity {
			t.dropped.Add(1)
		}
		return
	}
	t.lvl.MakeRoom(req.id, size)
	t.mu.Unlock()
	t.dropVictims()

	if err := t.writeSpill(req); err != nil {
		t.diskFaults.Add(1)
		if t.br.Failure(time.Now()) {
			t.brOpens.Add(1)
		}
		return
	}
	if t.br.Success() {
		t.brRecoveries.Add(1)
	}
	t.mu.Lock()
	t.lvl.Add(req.id, cache.Entry{Size: size})
	t.mu.Unlock()
	t.spillWrites.Add(1)
}

// writeSpill stages, syncs, and publishes one spill file.
func (t *Tier) writeSpill(req spillReq) error {
	f, err := t.fsys.CreateTemp(t.dir, tempPattern)
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(req.data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = t.fsys.Rename(tmp, filepath.Join(t.dir, spillName(req.id)))
	}
	if err != nil {
		t.fsys.Remove(tmp) // best effort; rescan reclaims survivors
		return err
	}
	return nil
}

// dropVictims closes the descriptors and removes the files of the blocks
// the level just evicted. Called without t.mu held, by the goroutine that
// made the room.
func (t *Tier) dropVictims() {
	for _, f := range t.shut {
		f.Close()
	}
	clear(t.shut)
	t.shut = t.shut[:0]
	for _, id := range t.victims {
		t.fsys.Remove(filepath.Join(t.dir, spillName(id)))
	}
	t.victims = t.victims[:0]
}

// contains reports whether a block is resident (indexed) in the tier.
func (t *Tier) contains(id grid.BlockID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lvl.Contains(id)
}

// Len returns the number of resident spill entries.
func (t *Tier) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lvl.Len()
}

// Used returns the bytes of resident spill files.
func (t *Tier) Used() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lvl.Used()
}

// BreakerState returns the disk breaker's state name for diagnostics.
func (t *Tier) BreakerState() string { return t.br.State().String() }

// Counters returns a snapshot of tier activity.
func (t *Tier) Counters() Counters {
	t.mu.Lock()
	blocks, used, evictions := int64(t.lvl.Len()), t.lvl.Used(), t.lvl.Evictions
	t.mu.Unlock()
	return Counters{
		SpillWrites:    t.spillWrites.Load(),
		SpillHits:      t.spillHits.Load(),
		SpillMisses:    t.spillMisses.Load(),
		ReadBypassed:   t.readBypassed.Load(),
		WriteBypassed:  t.writeBypassed.Load(),
		DiskFaults:     t.diskFaults.Load(),
		Quarantined:    t.quarantined.Load(),
		TmpReclaimed:   t.tmpReclaimed.Load(),
		Evictions:      evictions,
		Dropped:        t.dropped.Load(),
		BreakerOpens:   t.brOpens.Load(),
		BreakerRecov:   t.brRecoveries.Load(),
		Blocks:         blocks,
		OccupancyBytes: used,
	}
}

// Instrument registers the tier's counters and gauges under "tier." names.
func (t *Tier) Instrument(reg *obs.Registry) {
	reg.CounterFunc("tier.spill_writes", func() int64 { return t.spillWrites.Load() })
	reg.CounterFunc("tier.spill_hits", func() int64 { return t.spillHits.Load() })
	reg.CounterFunc("tier.spill_misses", func() int64 { return t.spillMisses.Load() })
	reg.CounterFunc("tier.read_bypassed", func() int64 { return t.readBypassed.Load() })
	reg.CounterFunc("tier.write_bypassed", func() int64 { return t.writeBypassed.Load() })
	reg.CounterFunc("tier.disk_faults", func() int64 { return t.diskFaults.Load() })
	reg.CounterFunc("tier.quarantined", func() int64 { return t.quarantined.Load() })
	reg.CounterFunc("tier.tmp_reclaimed", func() int64 { return t.tmpReclaimed.Load() })
	reg.CounterFunc("tier.evictions", func() int64 { return t.Counters().Evictions })
	reg.CounterFunc("tier.dropped", func() int64 { return t.dropped.Load() })
	reg.CounterFunc("tier.breaker_opens", func() int64 { return t.brOpens.Load() })
	reg.CounterFunc("tier.breaker_recoveries", func() int64 { return t.brRecoveries.Load() })
	reg.GaugeFunc("tier.blocks", func() int64 { return int64(t.Len()) })
	reg.GaugeFunc("tier.occupancy_bytes", func() int64 { return t.Used() })
	reg.GaugeFunc("tier.breaker_state", func() int64 { return int64(t.br.State()) })
}

// Drain blocks until every spill queued so far has been processed. Tests
// and benchmarks use it to make write-behind effects observable; frames
// never wait on it.
func (t *Tier) Drain() {
	done := make(chan struct{})
	t.qmu.RLock()
	if t.closed {
		t.qmu.RUnlock()
		return
	}
	t.queue <- spillReq{done: done}
	t.qmu.RUnlock()
	<-done
}

// Close stops the spill worker (draining queued spills first), invalidates
// further Puts and closes every descriptor the open set holds; a Get racing
// or following it reads through a descriptor of its own. Resident entries
// stay on disk for the next Open to rescan.
func (t *Tier) Close() error {
	t.qmu.Lock()
	if t.closed {
		t.qmu.Unlock()
		return nil
	}
	t.closed = true
	close(t.queue)
	t.qmu.Unlock()
	t.wg.Wait()
	var held []faultio.File
	t.mu.Lock()
	for id := range t.fds {
		if f := t.drop(grid.BlockID(id)); f != nil {
			held = append(held, f)
		}
	}
	t.open.Capacity = 0 // hold takes nothing more
	t.mu.Unlock()
	for _, f := range held {
		f.Close()
	}
	return nil
}
