package blocksvc

import (
	"bufio"
	"bytes"
	"compress/flate"
	"context"
	"hash/crc32"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/netchaos"
	"repro/internal/testutil"
)

// This file covers the wire protocol's negotiated features: the per-block
// compression codec, tagged request pipelining
// over a shared conn, failover scope after a mid-response tear, and the
// hostile-input bound on the compressed-block decode path.

// TestCompressionRoundTrip reads every block through the negotiated
// compressed wire in both policy modes and compares voxel-for-voxel with
// direct file reads; the server and client codec counters must agree.
func TestCompressionRoundTrip(t *testing.T) {
	for name, mode := range map[string]CompressionMode{
		"low-entropy": CompressLowEntropy,
		"all":         CompressAll,
	} {
		t.Run(name, func(t *testing.T) {
			f := startService(t, svcOpts{prefetch: true, mutate: func(c *Config) {
				c.HeartbeatInterval = -1
				c.Compression = mode
			}})
			r := dialPipe(t, f, 1)
			ids := f.g.All()
			vals, errs := r.ReadBlocks(context.Background(), ids)
			for i, id := range ids {
				if errs[i] != nil {
					t.Fatalf("block %d: %v", id, errs[i])
				}
				want, err := f.bf.ReadBlock(id)
				if err != nil {
					t.Fatal(err)
				}
				for j := range want {
					if vals[i][j] != want[j] {
						t.Fatalf("block %d voxel %d = %v, want %v", id, j, vals[i][j], want[j])
					}
				}
			}
			st := f.srv.Snapshot()
			if st.CompressedBlocks == 0 {
				t.Fatalf("mode %s compressed no blocks: %+v", name, st)
			}
			if st.CompressBytesOut >= st.CompressBytesIn {
				t.Errorf("compression grew the payload: %d -> %d bytes",
					st.CompressBytesIn, st.CompressBytesOut)
			}
			cs := r.Snapshot()
			if cs.DecompressedBlocks != st.CompressedBlocks {
				t.Errorf("client inflated %d blocks, server compressed %d",
					cs.DecompressedBlocks, st.CompressedBlocks)
			}
			raw := int64(0)
			for _, id := range ids {
				raw += f.g.VoxelCount(id) * 4
			}
			if cs.BytesReceived >= raw {
				t.Errorf("BytesReceived = %d, want under the %d raw bytes", cs.BytesReceived, raw)
			}
		})
	}
}

// TestPipelinedConcurrentBatches is the pipelining race test: several
// goroutines issue overlapping demand batches through ONE pooled
// connection. Tagged demultiplexing must route every response to its
// issuer — run with -race this is the ownership proof for the shared
// read loop, buffer recycling, and the per-tag pending state.
func TestPipelinedConcurrentBatches(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	f := startService(t, svcOpts{mutate: func(c *Config) {
		c.HeartbeatInterval = -1
		c.ResponseRunBytes = 4096 // multi-frame responses interleave across tags
	}})
	r, err := Dial(ClientConfig{Dial: f.lis.Dial, Conns: 1, PipelineDepth: 4,
		Retry: fastRetry(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	all := f.g.All()
	want := make(map[grid.BlockID][]float32, len(all))
	for _, id := range all {
		w, err := f.bf.ReadBlock(id)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = w
	}

	const sessions = 3
	var wg sync.WaitGroup
	errc := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				// Overlapping slices: every pair of sessions shares blocks.
				lo := (s * 13) % (len(all) / 2)
				ids := all[lo : lo+len(all)/2]
				vals, errs := r.ReadBlocks(context.Background(), ids)
				for i, id := range ids {
					if errs[i] != nil {
						errc <- errs[i]
						return
					}
					w := want[id]
					if len(vals[i]) != len(w) {
						t.Errorf("session %d block %d: %d values, want %d",
							s, id, len(vals[i]), len(w))
						return
					}
					for j := range w {
						if vals[i][j] != w[j] {
							t.Errorf("session %d block %d voxel %d = %v, want %v",
								s, id, j, vals[i][j], w[j])
							return
						}
					}
				}
			}
		}(s)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("pipelined read failed: %v", err)
	}
	st := r.Snapshot()
	if st.Dials != 1 {
		t.Errorf("Dials = %d; overlapping batches should share the single pooled conn", st.Dials)
	}
	if st.TransportErrors != 0 || st.Failovers != 0 {
		t.Errorf("clean pipelined run recorded faults: %+v", st)
	}
}

// startLyingServer completes a handshake and then answers every read
// with a single compressed block entry whose declared decompressed size is
// a lie (1 GiB). The client must reject the frame by comparing the claim
// against the block's known geometry BEFORE allocating a decode buffer.
func startLyingServer(t *testing.T, rawLenLie uint32) *PipeListener {
	t.Helper()
	lis := NewPipeListener()
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				if typ, _, err := readFrame(br, nil); err != nil || typ != msgHello {
					return
				}
				var e enc
				e.u16(ProtoVersion)
				e.u64(1)
				for _, v := range []uint32{32, 32, 32, 8, 8, 8, 1, 64, 0} {
					e.u32(v)
				}
				e.u32(0)           // no heartbeat
				e.u32(capCompress) // caps
				e.u32(4)           // maxRequests
				if err := writeFrame(c, msgWelcome, e.b); err != nil {
					return
				}
				for {
					typ, payload, err := readFrame(br, nil)
					if err != nil {
						return
					}
					if typ != msgRead {
						continue
					}
					msg, ok := decodeRead(payload, 1<<20)
					if !ok || len(msg.IDs) == 0 {
						return
					}
					var z bytes.Buffer
					zw, _ := flate.NewWriter(&z, flate.BestSpeed)
					zw.Write(make([]byte, 64))
					zw.Close()
					var b enc
					b.u64(msg.Req)
					b.u32(0) // first
					b.u16(1) // one entry
					b.u8(byte(statusOK))
					b.u8(codecFlate)
					b.u32(rawLenLie) // the lie: claims ~1 GiB decoded
					b.u32(uint32(z.Len()))
					b.raw(z.Bytes())
					b.u32(crc32.Checksum(z.Bytes(), castagnoli))
					if err := writeFrame(c, msgBlocks, b.b); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return lis
}

// TestLyingFlateHeaderCannotOverAllocate pins the hostile-input bound on
// the compressed path (the chunked-growth contract's codec analog): a
// frame whose rawBytes header claims 1 GiB for a 2 KiB block must fail the
// batch as a transport fault without the client ever allocating the
// claimed size.
func TestLyingFlateHeaderCannotOverAllocate(t *testing.T) {
	const lie = 1 << 30
	lis := startLyingServer(t, lie)
	r, err := Dial(ClientConfig{Dial: lis.Dial, Conns: 1, Retry: fastRetry(1),
		FailoverAttempts: 1, HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, errs := r.ReadBlocks(context.Background(), []grid.BlockID{0, 1})
	runtime.ReadMemStats(&after)
	for i, err := range errs {
		if err == nil || !faultio.Retryable(err) {
			t.Fatalf("errs[%d] = %v, want retryable transport fault", i, err)
		}
	}
	// The whole exchange — dial, handshake, reject — must not commit
	// anything near the lie. 32 MiB of headroom is ~1/32 of the claim.
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 32<<20 {
		t.Errorf("lying header drove %d bytes of allocation (claim %d)", delta, lie)
	}
	if st := r.Snapshot(); st.TransportErrors == 0 {
		t.Errorf("lying frame not counted as a transport error: %+v", st)
	}
}

// stallSeed drives TestStallMidResponseFailsOverScoped's deterministic
// fault schedule; see the comment at its netchaos.New call.
const stallSeed = 2

// TestStallMidResponseFailsOverScoped: replica A's wire stalls while a
// tagged response is in flight — the client's liveness deadline tears the
// conn mid-tag. The already-harvested blocks must be kept; only the tag's
// unanswered remainder may be re-issued to replica B.
func TestStallMidResponseFailsOverScoped(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	fa := startService(t, svcOpts{mutate: func(c *Config) {
		c.HeartbeatInterval = 40 * time.Millisecond
		c.ResponseRunBytes = 2048 // one block per frame: fine-grained stall points
	}})
	fb := startService(t, svcOpts{mutate: func(c *Config) { c.HeartbeatInterval = -1 }})

	// Seed-pinned: the welcome (write #1) passes and a data frame partway
	// through the 64-block response stalls forever. If the stall schedule
	// shifts (new seed, frame-layout change), re-pin so the run still
	// stalls after ≥1 block frame and before the done frame.
	ch := netchaos.New(netchaos.Config{Seed: stallSeed, StallRate: 0.05})
	lisA := NewPipeListener()
	t.Cleanup(func() { lisA.Close() })
	go fa.srv.Serve(ch.Listener(lisA))

	r, err := Dial(ClientConfig{
		Endpoints: []Endpoint{
			{Addr: "stall-a", Dial: lisA.Dial},
			{Addr: "clean-b", Dial: fb.lis.Dial},
		},
		Conns: 1,
		Retry: fastRetry(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ids := r.Grid().All()
	vals, errs := r.ReadBlocks(context.Background(), ids)
	for i := range ids {
		if errs[i] != nil {
			t.Fatalf("block %d: %v", ids[i], errs[i])
		}
		want, err := fa.bf.ReadBlock(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if vals[i][j] != want[j] {
				t.Fatalf("block %d voxel %d = %v, want %v", ids[i], j, vals[i][j], want[j])
			}
		}
	}
	if got := ch.Stats().Stalls; got == 0 {
		t.Fatal("stall never fired; re-pin the netchaos seed")
	}
	st := r.Snapshot()
	if st.Failovers == 0 {
		t.Fatalf("torn mid-response exchange did not fail over: %+v", st)
	}
	served := fb.srv.Snapshot().BlocksOK
	if served == 0 {
		t.Fatal("replica B served nothing; the stall hit outside the response")
	}
	if served >= int64(len(ids)) {
		t.Fatalf("replica B re-served all %d blocks; failover must re-issue only "+
			"the torn tag's unanswered remainder (harvested answers were dropped)", served)
	}
}
