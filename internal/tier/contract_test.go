package tier

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/blocksvc"
	"repro/internal/cache"
	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/volume"
)

// contractStack is one product reader under test, with a count of the block
// reads done below it (block file decodes, spill tier lookups, wire
// requests) and whether a buffer handed back comes out of its next read.
type contractStack struct {
	r     store.BlockReader
	reads func() int64
	pools bool
}

// TestReaderContract holds every product reader to store.BlockReader's one
// contract, the same checks for each: ReadBlock, a one-id ReadBlocks and a
// mixed batch equal the volume's voxels; an out-of-range id fails alone; a
// canceled ctx fails every id and reads nothing; and where the reader pools,
// a recycled buffer is handed out again by the next read of that size.
func TestReaderContract(t *testing.T) {
	ds := volume.Ball().Scale(1.0 / 32) // 32³ voxels in 64 blocks of 8³
	g, err := ds.Grid(grid.Dims{X: 8, Y: 8, Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ball.bvol")
	if err := store.Write(path, ds, g, 0); err != nil {
		t.Fatal(err)
	}
	openFile := func(t *testing.T) *store.BlockFile {
		bf, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { bf.Close() })
		return bf
	}
	decodes := func(bf *store.BlockFile) func() int64 {
		return func() int64 { return bf.IOStats().BufGets }
	}
	tiered := func(t *testing.T, warm bool) contractStack {
		bf := openFile(t)
		tr := openTier(t, t.TempDir(), g.NumBlocks(), int(g.VoxelCount(0)), nil)
		if warm {
			for id := grid.BlockID(0); int(id) < g.NumBlocks(); id++ {
				tr.Put(id, ds.BlockSamples(g, id, 0, 0))
			}
			tr.Drain()
		}
		reads := func() int64 {
			c := tr.Counters()
			return bf.IOStats().BufGets + c.SpillHits + c.SpillMisses
		}
		// A cold tier keeps a recycled buffer for its own hits; the block
		// file's next read does not see it.
		return contractStack{r: NewReader(bf, tr), reads: reads, pools: warm}
	}
	stacks := []struct {
		name  string
		build func(t *testing.T) contractStack
	}{
		{"BlockFile", func(t *testing.T) contractStack {
			bf := openFile(t)
			return contractStack{r: bf, reads: decodes(bf), pools: true}
		}},
		{"Injector/inert", func(t *testing.T) contractStack {
			bf := openFile(t)
			return contractStack{r: faultio.NewInjector(bf, faultio.InjectorConfig{}), reads: decodes(bf), pools: true}
		}},
		{"Injector/active", func(t *testing.T) contractStack {
			bf := openFile(t)
			in := faultio.NewInjector(bf, faultio.InjectorConfig{Seed: 5, Latency: time.Microsecond})
			return contractStack{r: in, reads: decodes(bf), pools: true}
		}},
		{"tier.Reader/cold", func(t *testing.T) contractStack { return tiered(t, false) }},
		{"tier.Reader/warm", func(t *testing.T) contractStack { return tiered(t, true) }},
		{"RemoteReader", func(t *testing.T) contractStack {
			bf := openFile(t)
			mc, err := store.NewMemCache(bf, int64(g.NumBlocks())*bf.BlockBytes(0), cache.NewLRU())
			if err != nil {
				t.Fatal(err)
			}
			srv, err := blocksvc.NewServer(blocksvc.Config{Cache: mc, Grid: g, Header: bf.Header()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Close)
			lis := testutil.NewPipeListener()
			go srv.Serve(lis)
			t.Cleanup(func() { lis.Close() })
			rr, err := blocksvc.Dial(blocksvc.ClientConfig{Dial: lis.Dial, Conns: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { rr.Close() })
			reads := func() int64 { return bf.IOStats().BufGets + rr.Snapshot().Requests }
			return contractStack{r: rr, reads: reads, pools: true}
		}},
	}

	n := grid.BlockID(g.NumBlocks())
	check := func(t *testing.T, what string, id grid.BlockID, vals []float32, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s of block %d: %v", what, id, err)
		}
		want := ds.BlockSamples(g, id, 0, 0)
		if len(vals) != len(want) {
			t.Fatalf("%s of block %d: %d values, want %d", what, id, len(vals), len(want))
		}
		for i := range want {
			if vals[i] != want[i] {
				t.Fatalf("%s of block %d: value %d = %v, want %v", what, id, i, vals[i], want[i])
			}
		}
	}
	for _, st := range stacks {
		t.Run(st.name, func(t *testing.T) {
			s := st.build(t)
			ctx := context.Background()

			vals, err := s.r.ReadBlock(9)
			check(t, "ReadBlock", 9, vals, err)
			one, errs := s.r.ReadBlocks(ctx, []grid.BlockID{21})
			check(t, "a one-id ReadBlocks", 21, one[0], errs[0])
			mixed := []grid.BlockID{40, 3, 4, 5, 40, 62, 0}
			got, errs := s.r.ReadBlocks(ctx, mixed)
			for i, id := range mixed {
				check(t, "a mixed batch", id, got[i], errs[i])
			}

			got, errs = s.r.ReadBlocks(ctx, []grid.BlockID{7, n, 8})
			if errs[1] == nil {
				t.Errorf("block %d, past the last, read without an error", n)
			}
			check(t, "a batch with an out-of-range id", 7, got[0], errs[0])
			check(t, "a batch with an out-of-range id", 8, got[2], errs[2])

			canceled, cancel := context.WithCancel(ctx)
			cancel()
			for _, ids := range [][]grid.BlockID{{10}, {10, 11, 30}} {
				before := s.reads()
				got, errs = s.r.ReadBlocks(canceled, ids)
				for i, err := range errs {
					if !errors.Is(err, context.Canceled) || got[i] != nil {
						t.Errorf("block %d under a canceled ctx: %d values, %v", ids[i], len(got[i]), err)
					}
				}
				if after := s.reads(); after != before {
					t.Errorf("a canceled batch of %d read %d blocks below the reader", len(ids), after-before)
				}
			}

			if !s.pools {
				return
			}
			first, errs := s.r.ReadBlocks(ctx, []grid.BlockID{12})
			check(t, "a one-id ReadBlocks", 12, first[0], errs[0])
			s.r.RecycleBlockBuf(first[0])
			next, errs := s.r.ReadBlocks(ctx, []grid.BlockID{13})
			check(t, "the read after a recycle", 13, next[0], errs[0])
			if &next[0][0] != &first[0][0] {
				t.Error("the recycled buffer was not handed out by the next read of its size")
			}
		})
	}
}
