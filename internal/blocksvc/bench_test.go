package blocksvc

import (
	"bufio"
	"context"
	"encoding/binary"
	"testing"

	"repro/internal/cache"
	"repro/internal/camera"
	"repro/internal/ooc"
	"repro/internal/store"
	"repro/internal/vec"
	"repro/internal/visibility"
)

// BenchmarkRemoteFrame measures one out-of-core frame served entirely over
// the wire: the server's cache is warm, but the client cache is too small to
// hold anything, so every visible block crosses the in-process pipe
// transport each frame — framing, CRC verification, and decode included.
// Compare with ooc.BenchmarkFrame (the same frame against local memory) for
// the protocol's per-frame cost.
func BenchmarkRemoteFrame(b *testing.B) { benchRemoteFrame(b, svcOpts{}) }

// BenchmarkRemoteFrame128k is the same frame over the same 4×4×4 block grid
// with the blocks the repository's benchmark moves: 32³ voxels, 128 KiB a
// payload, where a copy or a checksum of the payload is what a frame costs.
func BenchmarkRemoteFrame128k(b *testing.B) {
	benchRemoteFrame(b, svcOpts{scale: 1.0 / 8, block: 32})
}

func benchRemoteFrame(b *testing.B, o svcOpts) {
	f := startService(b, o)
	ctx := context.Background()
	// Warm the server cache so the benchmark measures the wire, not the disk.
	if _, errs := dialService(b, f, 1).ReadBlocks(ctx, f.g.All()); errs[0] != nil {
		b.Fatal(errs[0])
	}

	r := dialService(b, f, 4)
	mc, err := store.NewMemCache(r, 4, cache.NewLRU()) // passthrough: never caches
	if err != nil {
		b.Fatal(err)
	}
	rt, err := ooc.New(mc, f.vis, f.imp, ooc.Options{
		Sigma: f.imp.MaxScore() + 1, // no prefetch: steady-state demand only
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	cam := camera.Camera{Pos: vec.New(0, 0, 3), ViewAngle: vec.Radians(20)}
	visible := visibility.VisibleSet(f.g, cam)
	// The warm-up frame's buffers stock the pool: were they dropped, the
	// first timed frame would allocate the visible set afresh, and at 128 KiB
	// a block B/op would follow the iteration count.
	warm, _, err := rt.Frame(ctx, cam.Pos, visible)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range warm {
		r.RecycleBlockBuf(v)
	}
	b.SetBytes(int64(len(visible)) * f.bf.BlockBytes(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, rep, err := rt.Frame(ctx, cam.Pos, visible)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Degraded {
			b.Fatalf("degraded benchmark frame: %+v", rep)
		}
		// The frame is "rendered"; hand the decode buffers back so the
		// next frame's responses land in them instead of allocating —
		// the passthrough cache installs nothing, so the caller is the
		// buffers' sole owner here.
		for _, v := range out {
			r.RecycleBlockBuf(v)
		}
	}
}

// BenchmarkShardedRemoteFrame measures the same warm-cache wire frame as
// BenchmarkRemoteFrame, served by a consistent-hash cluster: with one shard
// the router has a single group (the flat fast path plus map bookkeeping),
// with three the visible set is partitioned by owner each frame and the
// per-shard batches run in parallel over independent pipes. The delta
// between the two is the routing overhead; the delta against
// BenchmarkRemoteFrame is the cluster handshake's steady-state cost.
func BenchmarkShardedRemoteFrame(b *testing.B) {
	for _, tc := range []struct {
		name   string
		shards []string
	}{
		{"1shard", []string{"a"}},
		{"3shards", []string{"a", "b", "c"}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			f := startCluster(b, tc.shards, nil)
			ctx := context.Background()
			// Warm every shard's cache so the benchmark measures the wire
			// and the router, not the disk.
			warm := dialCluster(b, f, 1)
			if _, errs := warm.ReadBlocks(ctx, f.g.All()); errs[0] != nil {
				b.Fatal(errs[0])
			}

			r := dialCluster(b, f, 4)
			mc, err := store.NewMemCache(r, 4, cache.NewLRU()) // passthrough: never caches
			if err != nil {
				b.Fatal(err)
			}
			rt, err := ooc.New(mc, f.vis, f.imp, ooc.Options{
				Sigma: f.imp.MaxScore() + 1, // no prefetch: steady-state demand only
			})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			cam := camera.Camera{Pos: vec.New(0, 0, 3), ViewAngle: vec.Radians(20)}
			visible := visibility.VisibleSet(f.g, cam)
			if _, _, err := rt.Frame(ctx, cam.Pos, visible); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(visible)) * f.bf.BlockBytes(0))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, rep, err := rt.Frame(ctx, cam.Pos, visible)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Degraded {
					b.Fatalf("degraded benchmark frame: %+v", rep)
				}
				for _, v := range out {
					r.RecycleBlockBuf(v)
				}
			}
			if st := r.Snapshot(); st.Reroutes != 0 || st.Redirects != 0 {
				b.Fatalf("benchmark frames rerouted: %+v", st)
			}
		})
	}
}

// TestWarmRemoteBatchAllocations pins what a warm remote batch allocates on
// each side of the wire, over both transports (neither allocates per
// frame). Server side: a hand-written client that allocates nothing of its
// own — one request frame, one receive buffer — asks a warm server for the
// whole volume, and the session's request record, its run results and its
// frame staging are all reused: 0. Both sides: RemoteReader.ReadBlocks of
// the same batch allocates its two results, vals and errs, and nothing
// more — the request record, its token channel and the batch's index slice
// are reused.
func TestWarmRemoteBatchAllocations(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr, func(t *testing.T) {
			f := startService(t, svcOpts{transport: tr,
				mutate: func(c *Config) { c.HeartbeatInterval = -1 }})
			ids := f.g.All()
			ctx := context.Background()

			conn, err := f.dial(ctx, "")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			bw, br := bufio.NewWriter(conn), bufio.NewReaderSize(conn, 64<<10)
			var e enc
			e.u32(protoMagic)
			e.u16(ProtoVersion)
			if err := writeFrame(bw, msgHello, e.b); err != nil || bw.Flush() != nil {
				t.Fatal("hello not sent")
			}
			if typ, _, err := readFrame(br, nil); err != nil || typ != msgWelcome {
				t.Fatalf("welcome: typ=%d err=%v", typ, err)
			}
			e.reset()
			e.u64(1)
			e.u32(0)
			e.u32(uint32(len(ids)))
			for _, id := range ids {
				e.u32(uint32(id))
			}
			buf := make([]byte, 0, maxFrameBytes/16)
			read := func() {
				if err := writeFrame(bw, msgRead, e.b); err != nil || bw.Flush() != nil {
					t.Fatal("read not sent")
				}
				for blocks := 0; ; {
					typ, payload, err := readFrame(br, buf)
					switch {
					case err != nil:
						t.Fatal(err)
					case typ == msgBlocks:
						blocks += int(binary.LittleEndian.Uint16(payload[12:]))
						continue
					case typ != msgDone || blocks != len(ids):
						t.Fatalf("frame type %d after %d of %d blocks", typ, blocks, len(ids))
					}
					return
				}
			}
			read() // the server's cache comes warm from the disk
			if n := testing.AllocsPerRun(50, read); n != 0 {
				t.Errorf("a warm server allocates %v times a batch, want 0", n)
			}

			r := dialService(t, f, 1)
			batch := func() {
				vals, errs := r.ReadBlocks(ctx, ids)
				for i, v := range vals {
					if errs[i] != nil {
						t.Fatal(errs[i])
					}
					r.RecycleBlockBuf(v)
				}
			}
			batch()
			if n := testing.AllocsPerRun(50, batch); n != 2 {
				t.Errorf("a warm remote batch allocates %v times, want 2 (ReadBlocks' vals and errs)", n)
			}
		})
	}
}
