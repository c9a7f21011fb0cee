package faultio

// File-operation fault injection: the write-side counterpart of Injector.
// Injector perturbs block *reads*; FaultFS perturbs the file operations a
// persistent cache performs — create, write, sync, rename, remove — so
// crash-safety and disk-fault-degradation logic can be tested
// deterministically. The same seed discipline applies: the decision for the
// n-th filesystem operation depends only on (Seed, n), so a single-writer
// caller (like the tier's spill worker) replays identically from a seed.

import (
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
)

// FS is the slice of filesystem the tiered cache uses. OSFS is the real
// implementation; FaultFS wraps any FS with deterministic fault injection.
type FS interface {
	// MkdirAll creates dir and parents, like os.MkdirAll.
	MkdirAll(dir string, perm os.FileMode) error
	// CreateTemp creates a unique temp file in dir, like os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// Open opens the named file for reading.
	Open(path string) (File, error)
	// Rename atomically moves oldpath to newpath.
	Rename(oldpath, newpath string) error
	// Remove deletes the named file.
	Remove(path string) error
	// ReadDir lists dir, sorted by filename.
	ReadDir(dir string) ([]os.DirEntry, error)
}

// File is the per-file surface the cache needs: sequential writes for the
// spill path, positioned reads for the lookup path (a descriptor the cache
// holds open serves many reads, each at its own offset, from several
// goroutines at once), plus Sync for the write-ahead discipline.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	// Name returns the path the file was opened or created with.
	Name() string
	// Sync flushes the file to stable storage.
	Sync() error
	// Close closes the file.
	Close() error
}

// OSFS is the passthrough FS over package os.
type OSFS struct{}

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

// CreateTemp implements FS.
func (OSFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

// Open implements FS.
func (OSFS) Open(path string) (File, error) { return os.Open(path) }

// Rename implements FS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OSFS) Remove(path string) error { return os.Remove(path) }

// ReadDir implements FS.
func (OSFS) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }

// FileFaultConfig sets the file-operation fault mix. All rates are
// probabilities in [0, 1], drawn independently per operation from the
// seed-driven stream.
type FileFaultConfig struct {
	// Seed makes the fault sequence deterministic: the decision for the
	// n-th faultable operation depends only on (Seed, n).
	Seed uint64
	// WriteFailRate is the probability a Write fails outright, persisting
	// nothing of that call.
	WriteFailRate float64
	// ShortWriteRate is the probability a Write persists only the first
	// half of its data yet reports full success — the lying-kernel/torn-
	// page hazard a checksummed rescan exists to catch. (The truncation is
	// silent by design: nothing detects it until the file is re-read.)
	ShortWriteRate float64
	// CorruptRate is the probability a successful Write is followed by one
	// bit of the just-written region being flipped on disk — post-write
	// media corruption, detectable only by checksum on re-read.
	CorruptRate float64
	// SyncFailRate is the probability a Sync fails.
	SyncFailRate float64
	// RenameFailRate is the probability a Rename fails (the file stays at
	// oldpath).
	RenameFailRate float64
	// ENOSPCAfterBytes, when > 0, fails every Write with ENOSPC once the
	// total bytes successfully written through this FS reach the limit —
	// a deterministic full-disk model.
	ENOSPCAfterBytes int64
}

// FileFaultStats counts injected file-operation activity.
type FileFaultStats struct {
	Ops          int64 // faultable operations that reached the injector
	WriteFails   int64 // writes failed outright
	ShortWrites  int64 // writes silently truncated
	Corruptions  int64 // post-write bit flips applied
	SyncFails    int64 // syncs failed
	RenameFails  int64 // renames failed
	ENOSPCWrites int64 // writes refused by the full-disk model
	BytesWritten int64 // bytes actually persisted
}

// FaultFS wraps an FS with deterministic file-operation fault injection.
// Safe for concurrent use, though the (Seed, n) determinism is only
// meaningful when operations arrive in a deterministic order (e.g. from a
// single spill worker). The zero config injects nothing.
type FaultFS struct {
	fs FS

	mu      sync.Mutex
	cfg     FileFaultConfig
	ops     uint64
	written int64
	stats   FileFaultStats
}

// NewFaultFS wraps fs (nil gets OSFS) with the configured fault mix.
func NewFaultFS(fs FS, cfg FileFaultConfig) *FaultFS {
	if fs == nil {
		fs = OSFS{}
	}
	return &FaultFS{fs: fs, cfg: cfg}
}

// SetConfig swaps the fault mix at runtime — tests use it to "heal the
// disk" after tripping a breaker. The operation counter keeps advancing, so
// the stream stays deterministic across the swap.
func (f *FaultFS) SetConfig(cfg FileFaultConfig) {
	f.mu.Lock()
	f.cfg = cfg
	f.mu.Unlock()
}

// Stats returns a snapshot of injected activity.
func (f *FaultFS) Stats() FileFaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// draw returns the deterministic generator for the next faultable operation
// along with the config in force.
func (f *FaultFS) draw() (rng, FileFaultConfig) {
	f.mu.Lock()
	n := f.ops
	f.ops++
	f.stats.Ops++
	cfg := f.cfg
	f.mu.Unlock()
	return rng{s: cfg.Seed ^ (n+1)*0x9E3779B97F4A7C15}, cfg
}

// MkdirAll implements FS (never injected: directory creation is setup, not
// the crash surface under test).
func (f *FaultFS) MkdirAll(dir string, perm os.FileMode) error { return f.fs.MkdirAll(dir, perm) }

// CreateTemp implements FS; the returned File carries the write-path faults.
func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	file, err := f.fs.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: file, fs: f}, nil
}

// Open implements FS. Reads pass through unperturbed: read-side corruption
// is modeled by CorruptRate at write time (it rots the bytes on disk, where
// a checksum catches it), and read errors by the block-level Injector.
func (f *FaultFS) Open(path string) (File, error) { return f.fs.Open(path) }

// Rename implements FS.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	r, cfg := f.draw()
	if r.float() < cfg.RenameFailRate {
		f.count(func(s *FileFaultStats) { s.RenameFails++ })
		return fmt.Errorf("faultio: injected rename failure %s -> %s: %w",
			oldpath, newpath, ErrTransient)
	}
	return f.fs.Rename(oldpath, newpath)
}

// Remove implements FS (never injected: removal failures only leak space,
// and the interesting removal hazard — a crash before removal — is modeled
// by simply not calling Remove).
func (f *FaultFS) Remove(path string) error { return f.fs.Remove(path) }

// ReadDir implements FS.
func (f *FaultFS) ReadDir(dir string) ([]os.DirEntry, error) { return f.fs.ReadDir(dir) }

func (f *FaultFS) count(fn func(*FileFaultStats)) {
	f.mu.Lock()
	fn(&f.stats)
	f.mu.Unlock()
}

// noteWritten charges n persisted bytes against the full-disk budget;
// returns false when the budget was already exhausted before this write.
func (f *FaultFS) full() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cfg.ENOSPCAfterBytes > 0 && f.written >= f.cfg.ENOSPCAfterBytes
}

func (f *FaultFS) noteWritten(n int) {
	f.mu.Lock()
	f.written += int64(n)
	f.stats.BytesWritten += int64(n)
	f.mu.Unlock()
}

// faultFile injects write-side faults on one file. Reads, sequential or
// positioned, pass through to the handle unperturbed and draw nothing from
// the fault stream, so the writer's (Seed, n) sequence does not depend on
// how often anything reads.
type faultFile struct {
	f   File
	fs  *FaultFS
	off int64 // bytes successfully written, for corruption offsets
}

func (ff *faultFile) Name() string               { return ff.f.Name() }
func (ff *faultFile) Read(p []byte) (int, error) { return ff.f.Read(p) }
func (ff *faultFile) Close() error               { return ff.f.Close() }

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) { return ff.f.ReadAt(p, off) }

// Write applies, in order: the full-disk model, outright failure, silent
// short write, then post-write corruption.
func (ff *faultFile) Write(p []byte) (int, error) {
	r, cfg := ff.fs.draw()
	if ff.fs.full() {
		ff.fs.count(func(s *FileFaultStats) { s.ENOSPCWrites++ })
		return 0, fmt.Errorf("faultio: injected disk full: %w", Permanent(syscall.ENOSPC))
	}
	if r.float() < cfg.WriteFailRate {
		ff.fs.count(func(s *FileFaultStats) { s.WriteFails++ })
		return 0, fmt.Errorf("faultio: injected write failure: %w", ErrTransient)
	}
	if len(p) > 1 && r.float() < cfg.ShortWriteRate {
		// Persist half, report success: the caller believes the write
		// landed. Detection is the reader's problem (that is the point).
		n, err := ff.f.Write(p[:len(p)/2])
		ff.fs.noteWritten(n)
		ff.off += int64(n)
		if err != nil {
			return n, err
		}
		ff.fs.count(func(s *FileFaultStats) { s.ShortWrites++ })
		return len(p), nil
	}
	n, err := ff.f.Write(p)
	ff.fs.noteWritten(n)
	start := ff.off
	ff.off += int64(n)
	if err != nil {
		return n, err
	}
	if n > 0 && r.float() < cfg.CorruptRate {
		ff.corrupt(r, start, n)
	}
	return n, nil
}

// corrupt flips one bit of the region just written, when the underlying
// file supports positioned writes (os.File does).
func (ff *faultFile) corrupt(r rng, start int64, n int) {
	wa, ok := ff.f.(io.WriterAt)
	if !ok {
		return
	}
	off := start + int64(r.next()%uint64(n))
	var b [1]byte
	if _, err := ff.f.ReadAt(b[:], off); err != nil {
		return
	}
	b[0] ^= 1 << (r.next() % 8)
	if _, err := wa.WriteAt(b[:], off); err != nil {
		return
	}
	ff.fs.count(func(s *FileFaultStats) { s.Corruptions++ })
}

func (ff *faultFile) Sync() error {
	r, cfg := ff.fs.draw()
	if r.float() < cfg.SyncFailRate {
		ff.fs.count(func(s *FileFaultStats) { s.SyncFails++ })
		return fmt.Errorf("faultio: injected sync failure: %w", ErrTransient)
	}
	return ff.f.Sync()
}
