package blocksvc

import (
	"bufio"
	"context"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/netchaos"
	"repro/internal/testutil"
	"repro/internal/vec"
)

// This file covers the wire path's concurrency and hostile-input pins:
// tagged request pipelining over a shared conn, a view hint beside full
// tags, failover scope after a mid-response tear, and the payload-length
// check against the geometry.

// TestPipelinedConcurrentBatches is the pipelining race test: several
// goroutines issue overlapping demand batches through ONE pooled
// connection. Tagged demultiplexing must route every response to its
// issuer — run with -race this is the ownership proof for the shared
// read loop, buffer recycling, and the per-tag pending state, and on the
// server for concurrent sendRuns sharing one session's writer, on each
// transport.
func TestPipelinedConcurrentBatches(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr, func(t *testing.T) { pipelinedConcurrentBatches(t, tr) })
	}
}

func pipelinedConcurrentBatches(t *testing.T, transport string) {
	testutil.VerifyNoLeaks(t)
	f := startService(t, svcOpts{transport: transport, mutate: func(c *Config) {
		c.HeartbeatInterval = -1
		c.runBytes = 4096 // multi-frame responses interleave across tags
	}})
	r, err := Dial(ClientConfig{Dial: f.dial, Conns: 1, Retry: fastRetry(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	all := f.g.All()
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
					if !blockMatchesFile(f, id, vals[i]) {
						t.Errorf("session %d block %d does not match the block file", s, id)
						return
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

// TestSendViewNotBehindReads: a view hint takes no request slot, so it goes
// out on the live conn even while reads hold every tag — neither parked
// until one completes nor sent on a conn dialed just for it.
func TestSendViewNotBehindReads(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	f := startService(t, svcOpts{
		inject: &faultio.InjectorConfig{Seed: 3, Latency: 80 * time.Millisecond},
		mutate: func(c *Config) { c.HeartbeatInterval = -1 },
	})
	r := dialService(t, f, 1)

	var wg sync.WaitGroup
	errc := make(chan error, pipelineDepth)
	for i := range pipelineDepth {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs := r.ReadBlocks(context.Background(), []grid.BlockID{grid.BlockID(i)})
			errc <- errs[0]
		}()
	}
	waitFor(t, 2*time.Second, "every tag to be in flight", func() bool {
		return f.srv.Snapshot().Requests >= pipelineDepth
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := r.SendView(ctx, vec.New(3, 0, 0)); err != nil {
		t.Fatalf("SendView with every tag taken: %v", err)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	if st := r.Snapshot(); st.Dials != 1 || st.ViewUpdates != 1 {
		t.Errorf("want the view on the one pooled conn: %+v", st)
	}
	waitFor(t, 2*time.Second, "the server to see the view", func() bool {
		return f.srv.Snapshot().ViewUpdates == 1
	})
}

// startLyingServer completes a handshake for a 32³ volume in 8³ blocks
// (2 048-byte payloads) and then answers every read with one OK entry for
// the request's first block whose payload is payloadBytes long — correctly
// framed, correctly checksummed, and the wrong size for the block.
func startLyingServer(t *testing.T, payloadBytes int) *testutil.PipeListener {
	t.Helper()
	lis := testutil.NewPipeListener()
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
				e.u32(0) // no heartbeat
				e.u32(4) // maxRequests
				e.u32(0) // mapBytes: a flat server
				if err := writeFrameTo(c, msgWelcome, e.b); err != nil {
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
					msg, ok := decodeRead(payload, 1<<20, nil)
					if !ok || len(msg.IDs) == 0 {
						return
					}
					lie := make([]byte, payloadBytes)
					var b enc
					b.u64(msg.Req)
					b.u32(0) // first
					b.u16(1) // one entry
					b.u8(byte(statusOK))
					b.u32(uint32(len(lie)))
					b.raw(lie)
					b.u32(crc32.Checksum(lie, castagnoli))
					if err := writeFrameTo(c, msgBlocks, b.b); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return lis
}

// TestLyingLengthRejected pins the payload-length check: an OK entry whose
// length is not the geometry's for that block — short, long but inside the
// frame, not even whole floats, or right for a block but answering an id
// the grid does not have — is a protocol violation. Each must fail the
// batch as a transport fault and deliver nothing; before the check a valid
// CRC over 7 bytes delivered a one-float "block".
func TestLyingLengthRejected(t *testing.T) {
	for _, tc := range []struct {
		name         string
		payloadBytes int
		first        grid.BlockID
	}{
		{"short", 2044, 0},
		{"long within the frame", 4096, 0},
		{"not a multiple of 4", 7, 0},
		{"id outside the grid", 2048, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lis := startLyingServer(t, tc.payloadBytes)
			r, err := Dial(ClientConfig{Dial: lis.Dial, Conns: 1, Retry: fastRetry(1)})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			// The deadline only matters when the check is missing: the lie is
			// then taken for an answer and the other block waits forever.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			vals, errs := r.ReadBlocks(ctx, []grid.BlockID{tc.first, 1})
			for i := range errs {
				if vals[i] != nil {
					t.Fatalf("vals[%d]: a %d-byte payload was delivered as a block of %d floats",
						i, tc.payloadBytes, len(vals[i]))
				}
				if errs[i] == nil || !faultio.Retryable(errs[i]) {
					t.Fatalf("errs[%d] = %v, want retryable transport fault", i, errs[i])
				}
			}
			if st := r.Snapshot(); st.TransportErrors == 0 || st.BlocksServed != 0 {
				t.Errorf("lying frame must count as a transport error and serve nothing: %+v", st)
			}
		})
	}
}

// TestOversizeRunNeverSilent: with a run target past what one frame may
// carry (Config.runBytes at 1 GiB), a run it allows can outgrow the frame.
// Such a request must be answered — the run split is bounded by the frame as
// well — and a run that still cannot be framed (here a server whose
// Config.Grid understates its blocks eightfold, so that its own split is
// wrong) must fail the session out loud. Before, sendRun dropped the frame and
// serveRead took that for a torn connection: no blocks, no done, no error,
// and a client waiting out its deadline.
func TestOversizeRunNeverSilent(t *testing.T) {
	// 2 KiB blocks: this many of them are past 64 MiB. One id over and over
	// keeps the server's side of it to one cached block.
	const blocks = maxFrameBytes/2048 + 500
	ask := func(t *testing.T, f *svcFixture, n int) (br *bufio.Reader) {
		t.Helper()
		conn, err := f.dial(context.Background(), "")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(20 * time.Second)) // silence fails the test, not the suite
		var e enc
		e.u32(protoMagic)
		e.u16(ProtoVersion)
		if err := writeFrameTo(conn, msgHello, e.b); err != nil {
			t.Fatal(err)
		}
		br = bufio.NewReader(conn)
		if typ, _, err := readFrame(br, nil); err != nil || typ != msgWelcome {
			t.Fatalf("welcome: typ=%d err=%v", typ, err)
		}
		e.reset()
		e.u64(1)
		e.u32(0)
		e.u32(uint32(n))
		for range n {
			e.u32(0)
		}
		go writeFrameTo(conn, msgRead, e.b) // the pipe transport blocks a write until it is read
		return br
	}
	// next returns the coming frame's type and length, its payload discarded
	// but for the entry count of a blocks frame.
	next := func(t *testing.T, br *bufio.Reader) (typ byte, n, entries int) {
		t.Helper()
		var hdr [frameHeaderSize + runPreludeBytes]byte
		if _, err := io.ReadFull(br, hdr[:frameHeaderSize]); err != nil {
			t.Fatalf("the server went silent or away: %v", err)
		}
		n, typ = int(binary.LittleEndian.Uint32(hdr[:4])), hdr[4]
		rest := n
		if typ == msgBlocks {
			if _, err := io.ReadFull(br, hdr[frameHeaderSize:]); err != nil {
				t.Fatal(err)
			}
			entries = int(binary.LittleEndian.Uint16(hdr[frameHeaderSize+12:]))
			rest -= runPreludeBytes
		}
		if _, err := io.CopyN(io.Discard, br, int64(rest)); err != nil {
			t.Fatal(err)
		}
		return typ, n, entries
	}

	t.Run("answered in frames that fit", func(t *testing.T) {
		f := startService(t, svcOpts{mutate: func(c *Config) {
			c.HeartbeatInterval = -1
			c.runBytes = 1 << 30
		}})
		br := ask(t, f, blocks)
		answered, frames := 0, 0
		for {
			typ, n, entries := next(t, br)
			if typ == msgDone {
				break
			}
			if typ != msgBlocks || n > maxFrameBytes {
				t.Fatalf("frame type %d of %d bytes", typ, n)
			}
			answered += entries
			frames++
		}
		if answered != blocks || frames < 2 {
			t.Fatalf("%d of %d blocks answered in %d frames, want all of them in two or more", answered, blocks, frames)
		}
	})

	t.Run("refused out loud", func(t *testing.T) {
		f := startService(t, svcOpts{mutate: func(c *Config) {
			c.HeartbeatInterval = -1
			c.runBytes = 1 << 30
			lying, err := grid.New(c.Grid.Res(), grid.Dims{X: 4, Y: 4, Z: 4})
			if err != nil {
				t.Fatal(err)
			}
			c.Grid = lying // 256-byte blocks on paper, 2 KiB in the cache
		}})
		br := ask(t, f, blocks)
		if typ, _, _ := next(t, br); typ != msgError {
			t.Fatalf("frame type %d, want the session failed with an error frame", typ)
		}
		if _, err := br.ReadByte(); err != io.EOF {
			t.Fatalf("after the error frame: %v, want the connection closed", err)
		}
	})
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
		c.runBytes = 2048 // one block per frame: fine-grained stall points
	}})
	fb := startService(t, svcOpts{mutate: func(c *Config) { c.HeartbeatInterval = -1 }})

	// Seed-pinned: the welcome (write #1) passes and a data frame partway
	// through the 64-block response stalls forever. If the stall schedule
	// shifts (new seed, frame-layout change), re-pin so the run still
	// stalls after ≥1 block frame and before the done frame.
	ch := netchaos.New(netchaos.Config{Seed: stallSeed, StallRate: 0.05})
	lisA := testutil.NewPipeListener()
	t.Cleanup(func() { lisA.Close() })
	go fa.srv.Serve(ch.Listener(lisA))

	r, err := Dial(ClientConfig{
		Endpoints: []string{"stall-a", "clean-b"},
		Dial:      dialRoutes(map[string]dialFunc{"stall-a": lisA.Dial, "clean-b": fb.lis.Dial}),
		Conns:     1,
		Retry:     fastRetry(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ids := r.g.All()
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
