package tier

// End-to-end crash-safety capstone: a remote visualization session spills
// its DRAM evictions to a persistent tier, the process is killed hard
// (modeled as crash artifacts: a torn spill, a rotten spill, a stray
// temp), and a fresh session over the same directory must recover every
// intact block checksum-verified, quarantine the damage, and render a full
// orbit with zero frame errors. A second test drives runtime disk faults
// through the spill path: the breaker trips, the session degrades to
// DRAM + remote without a single frame error, and a healed disk closes the
// breaker again.

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/blocksvc"
	"repro/internal/cache"
	"repro/internal/camera"
	"repro/internal/entropy"
	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/ooc"
	"repro/internal/radius"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/vec"
	"repro/internal/visibility"
	"repro/internal/volume"
)

// remoteFixture is the server side: ball dataset behind a blocksvc server
// on an in-process pipe listener.
type remoteFixture struct {
	g   *grid.Grid
	bf  *store.BlockFile
	imp *entropy.Table
	vis *visibility.Table
	lis *blocksvc.PipeListener
}

func startRemote(t testing.TB) *remoteFixture { return startRemoteBlocks(t, 8) }

// startRemoteBlocks is startRemote with cubic blocks of the given edge, the
// volume scaled with them so the block grid stays 4×4×4.
func startRemoteBlocks(t testing.TB, edge int) *remoteFixture {
	t.Helper()
	ds := volume.Ball().Scale(float64(edge) / 256) // 4 blocks along each axis
	g, err := ds.Grid(grid.Dims{X: edge, Y: edge, Z: edge})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ball.bvol")
	if err := store.Write(path, ds, g, 0); err != nil {
		t.Fatal(err)
	}
	bf, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bf.Close() })
	mc, err := store.NewMemCache(bf, int64(g.NumBlocks())*bf.BlockBytes(0), cache.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := blocksvc.NewServer(blocksvc.Config{Cache: mc, Grid: g, Header: bf.Header()})
	if err != nil {
		t.Fatal(err)
	}
	lis := blocksvc.NewPipeListener()
	go srv.Serve(lis)
	t.Cleanup(func() {
		lis.Close()
		srv.Close()
	})
	imp := entropy.Build(ds, g, entropy.Options{})
	vis, err := visibility.NewTable(g, visibility.Options{
		NAzimuth: 16, NElevation: 8, NDistance: 2,
		RMin: 2.5, RMax: 3.5,
		ViewAngle: vec.Radians(20),
		Radius:    radius.Fixed(0.3),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &remoteFixture{g: g, bf: bf, imp: imp, vis: vis, lis: lis}
}

func (f *remoteFixture) dial(t testing.TB) *blocksvc.RemoteReader {
	t.Helper()
	r, err := blocksvc.Dial(blocksvc.ClientConfig{
		Dial:  f.lis.Dial,
		Conns: 2,
		Retry: &faultio.Retrier{
			MaxAttempts: 3,
			BaseDelay:   10 * time.Microsecond,
			MaxDelay:    100 * time.Microsecond,
			Seed:        11,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// orbit renders frames from cameras circling the dataset, failing the test
// on any frame error or degradation. It returns the number of frames.
func orbit(t *testing.T, rt *ooc.Runtime, g *grid.Grid, steps int) int {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < steps; i++ {
		theta := 2 * math.Pi * float64(i) / float64(steps)
		cam := camera.Camera{
			Pos:       vec.New(3*math.Sin(theta), 0, 3*math.Cos(theta)),
			ViewAngle: vec.Radians(20),
		}
		visible := visibility.VisibleSet(g, cam)
		_, rep, err := rt.Frame(ctx, cam.Pos, visible)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if rep.Degraded {
			t.Fatalf("frame %d degraded: %+v", i, rep)
		}
	}
	return steps
}

// session wires the full client stack: remote reader → spill tier reader →
// DRAM cache (with write-behind into the tier) → out-of-core runtime.
func session(t *testing.T, f *remoteFixture, tr *Tier, dramBlocks int64) *ooc.Runtime {
	t.Helper()
	r := f.dial(t)
	mc, err := store.NewMemCache(NewReader(r, tr), dramBlocks*f.bf.BlockBytes(0), cache.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	mc.OnEvict(func(id grid.BlockID, vals []float32) { tr.Put(id, vals) })
	rt, err := ooc.New(mc, f.vis, f.imp, ooc.Options{
		Sigma: f.imp.MaxScore() + 1, // demand-only: no prefetch noise
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt
}

func TestCrashRecoveryEndToEnd(t *testing.T) {
	f := startRemote(t)
	dir := t.TempDir()
	tierCap := int64(f.g.NumBlocks()) * int64(spillHeaderSize+f.bf.BlockBytes(0))

	// Session 1: orbit with a DRAM cache far smaller than the working set,
	// so evictions spill steadily.
	tr, err := Open(Config{Dir: dir, Capacity: tierCap})
	if err != nil {
		t.Fatal(err)
	}
	rt := session(t, f, tr, 6)
	orbit(t, rt, f.g, 8)
	tr.Drain()
	if c := tr.Counters(); c.SpillWrites == 0 {
		t.Fatalf("orbit produced no spills: %+v", c)
	}
	var resident []grid.BlockID
	for id := grid.BlockID(0); int(id) < f.g.NumBlocks(); id++ {
		if tr.Contains(id) {
			resident = append(resident, id)
		}
	}
	if len(resident) < 3 {
		t.Fatalf("only %d resident spills; need >= 3 for crash artifacts", len(resident))
	}
	tr.Close() // hard kill: on-disk state is whatever the crash left

	// The crash: one spill torn mid-write, one rotted on disk, one stray
	// temp file from an unpublished staging write.
	torn, rotten := resident[0], resident[1]
	tornPath := filepath.Join(dir, spillName(torn))
	raw, err := os.ReadFile(tornPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tornPath, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	rotPath := filepath.Join(dir, spillName(rotten))
	raw, err = os.ReadFile(rotPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[spillHeaderSize+3] ^= 0x40
	if err := os.WriteFile(rotPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "spill-777.tmp"), []byte("torn staging"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Session 2: rescan must quarantine exactly the damaged pair, reclaim
	// the temp, and serve every intact block back checksum-verified.
	tr2, err := Open(Config{Dir: dir, Capacity: tierCap})
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	c := tr2.Counters()
	if c.Quarantined != 2 {
		t.Errorf("quarantined = %d, want 2", c.Quarantined)
	}
	if c.TmpReclaimed != 1 {
		t.Errorf("tmp reclaimed = %d, want 1", c.TmpReclaimed)
	}
	for _, id := range resident {
		if id == torn || id == rotten {
			if tr2.Contains(id) {
				t.Errorf("damaged block %d still indexed", id)
			}
			continue
		}
		vals, ok := tr2.Get(id)
		if !ok {
			t.Errorf("intact block %d not recovered", id)
			continue
		}
		want, err := f.bf.ReadBlock(id)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if vals[i] != want[i] {
				t.Fatalf("recovered block %d differs at %d", id, i)
				break
			}
		}
	}
	// And the session renders on: zero frame errors, with the tier now
	// serving warm blocks below DRAM.
	rt2 := session(t, f, tr2, 6)
	orbit(t, rt2, f.g, 8)
	if c := tr2.Counters(); c.SpillHits == 0 {
		t.Errorf("recovered tier never served a hit: %+v", c)
	}
	testutil.VerifyNoLeaks(t)
}

// TestDiskFaultDegradationEndToEnd renders through a tier whose disk fails
// every write: frames must never error, the breaker must trip, and a
// healed disk must bring the tier back.
func TestDiskFaultDegradationEndToEnd(t *testing.T) {
	f := startRemote(t)
	ffs := faultio.NewFaultFS(nil, faultio.FileFaultConfig{Seed: 21, WriteFailRate: 1})
	tr, err := Open(Config{Dir: t.TempDir(), Capacity: 1 << 20, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	withBreaker(tr, 3, 5*time.Millisecond, 10*time.Millisecond)
	rt := session(t, f, tr, 6)

	// Every spill fails; the orbit must not notice.
	orbit(t, rt, f.g, 6)
	tr.Drain()
	c := tr.Counters()
	if c.SpillWrites != 0 {
		t.Fatalf("writes landed on a failing disk: %+v", c)
	}
	if c.DiskFaults == 0 || c.BreakerOpens == 0 {
		t.Fatalf("failing disk never tripped the breaker: %+v", c)
	}
	if c.WriteBypassed == 0 {
		t.Fatalf("open breaker never bypassed a spill: %+v", c)
	}

	// Heal the disk; after the backoff window a probe must close the
	// breaker and spills must land again.
	ffs.SetConfig(faultio.FileFaultConfig{Seed: 21})
	deadline := time.Now().Add(2 * time.Second)
	for {
		time.Sleep(15 * time.Millisecond)
		orbit(t, rt, f.g, 2)
		tr.Drain()
		if tr.Counters().SpillWrites > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healed disk never recovered: %+v", tr.Counters())
		}
	}
	if st := tr.BreakerState(); st != "closed" {
		t.Fatalf("breaker = %s after recovery, want closed", st)
	}
	if c := tr.Counters(); c.BreakerRecov == 0 {
		t.Fatalf("no recovery counted: %+v", c)
	}
	testutil.VerifyNoLeaks(t)
}
