package main

import (
	"context"
	"sync/atomic"

	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/store"
)

// tracedReader is the timing wrapper the traced run interposes at a reader
// seam. It forwards the whole store reader surface, so a MemCache above it
// still batches its misses and still recycles buffers, and it records one
// span per call. A read that arrives with a frame's context is that frame's
// child; any other read (prefetch, the server's reads) hangs under root.
type tracedReader struct {
	tr    *tracer
	inner store.BlockReader
	batch spanName // name for ReadBlocks
	one   spanName // name for single-block reads
	root  int32

	blocks atomic.Int64 // blocks asked for through this seam
}

var (
	_ store.ContextBlockReader = (*tracedReader)(nil)
	_ store.BatchBlockReader   = (*tracedReader)(nil)
	_ store.BlockBufRecycler   = (*tracedReader)(nil)
)

// enter opens a span for a read under ctx and returns the context its own
// children should see.
func (r *tracedReader) enter(ctx context.Context, name spanName, n int) (context.Context, int32) {
	r.blocks.Add(int64(n))
	ref, ok := spanFrom(ctx)
	if !ok {
		ref = spanRef{frame: -1, span: r.root}
	}
	sp := r.tr.begin(name, ref.span, ref.frame)
	if ok {
		ctx = withSpan(ctx, spanRef{frame: ref.frame, span: sp})
	}
	return ctx, sp
}

func (r *tracedReader) ReadBlock(id grid.BlockID) ([]float32, error) {
	return r.ReadBlockContext(context.Background(), id)
}

func (r *tracedReader) ReadBlockContext(ctx context.Context, id grid.BlockID) ([]float32, error) {
	ctx, sp := r.enter(ctx, r.one, 1)
	defer r.tr.end(sp)
	if cr, ok := r.inner.(store.ContextBlockReader); ok {
		return cr.ReadBlockContext(ctx, id)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.inner.ReadBlock(id)
}

func (r *tracedReader) ReadBlocks(ctx context.Context, ids []grid.BlockID) ([][]float32, []error) {
	ctx, sp := r.enter(ctx, r.batch, len(ids))
	defer r.tr.end(sp)
	if br, ok := r.inner.(store.BatchBlockReader); ok {
		return br.ReadBlocks(ctx, ids)
	}
	vals := make([][]float32, len(ids))
	errs := make([]error, len(ids))
	for i, id := range ids {
		vals[i], errs[i] = r.inner.ReadBlock(id)
	}
	return vals, errs
}

func (r *tracedReader) RecycleBlockBuf(vals []float32) {
	if rec, ok := r.inner.(store.BlockBufRecycler); ok {
		rec.RecycleBlockBuf(vals)
	}
}

// fsCounts is what the spill tier did to the filesystem, split by whether the
// file was opened to be read (a spill hit) or created to be written.
type fsCounts struct {
	readOps, writeOps atomic.Int64 // calls: open/read/close, create/write/sync/close/rename/remove
	syncs             atomic.Int64
	bytesWritten      atomic.Int64
}

// tracedFS is the counting, timing filesystem handed to tier.Config.FS in
// the traced run. The tier passes no context to it, so its spans hang under
// the background root. MkdirAll and ReadDir run only while the tier opens and
// go through uncounted.
type tracedFS struct {
	faultio.OSFS
	tr *tracer
	n  fsCounts
}

func (fs *tracedFS) op(name spanName) int32 {
	if name == spFSRead {
		fs.n.readOps.Add(1)
	} else {
		fs.n.writeOps.Add(1)
	}
	return fs.tr.begin(name, fs.tr.background, -1)
}

func (fs *tracedFS) CreateTemp(dir, pattern string) (faultio.File, error) {
	sp := fs.op(spFSWrite)
	defer fs.tr.end(sp)
	f, err := fs.OSFS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, fs: fs, name: spFSWrite}, nil
}

func (fs *tracedFS) Open(path string) (faultio.File, error) {
	sp := fs.op(spFSRead)
	defer fs.tr.end(sp)
	f, err := fs.OSFS.Open(path)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, fs: fs, name: spFSRead}, nil
}

func (fs *tracedFS) Rename(oldpath, newpath string) error {
	sp := fs.op(spFSWrite)
	defer fs.tr.end(sp)
	return fs.OSFS.Rename(oldpath, newpath)
}

func (fs *tracedFS) Remove(path string) error {
	sp := fs.op(spFSWrite)
	defer fs.tr.end(sp)
	return fs.OSFS.Remove(path)
}

type tracedFile struct {
	faultio.File
	fs   *tracedFS
	name spanName
}

func (f *tracedFile) Read(p []byte) (int, error) {
	sp := f.fs.op(f.name)
	defer f.fs.tr.end(sp)
	return f.File.Read(p)
}

func (f *tracedFile) Write(p []byte) (int, error) {
	sp := f.fs.op(f.name)
	defer f.fs.tr.end(sp)
	n, err := f.File.Write(p)
	f.fs.n.bytesWritten.Add(int64(n))
	return n, err
}

func (f *tracedFile) Sync() error {
	sp := f.fs.op(f.name)
	defer f.fs.tr.end(sp)
	f.fs.n.syncs.Add(1)
	return f.File.Sync()
}

func (f *tracedFile) Close() error {
	sp := f.fs.op(f.name)
	defer f.fs.tr.end(sp)
	return f.File.Close()
}
