package blocksvc

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/cache"
	"repro/internal/camera"
	"repro/internal/entropy"
	"repro/internal/f32le"
	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/ooc"
	"repro/internal/radius"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/vec"
	"repro/internal/visibility"
	"repro/internal/volume"
)

// countingReader wraps a BlockFile and counts backing-store reads per block:
// the instrument for the exactly-one-read-per-cold-block acceptance check.
type countingReader struct {
	bf *store.BlockFile

	mu    sync.Mutex
	reads map[grid.BlockID]int
}

func newCountingReader(bf *store.BlockFile) *countingReader {
	return &countingReader{bf: bf, reads: make(map[grid.BlockID]int)}
}

func (c *countingReader) note(ids ...grid.BlockID) {
	c.mu.Lock()
	for _, id := range ids {
		c.reads[id]++
	}
	c.mu.Unlock()
}

func (c *countingReader) ReadBlock(id grid.BlockID) ([]float32, error) {
	c.note(id)
	return c.bf.ReadBlock(id)
}

func (c *countingReader) ReadBlocks(ctx context.Context, ids []grid.BlockID) ([][]float32, []error) {
	c.note(ids...)
	return c.bf.ReadBlocks(ctx, ids)
}

func (c *countingReader) RecycleBlockBuf(vals []float32) { c.bf.RecycleBlockBuf(vals) }

// maxReads returns the highest per-block read count and the total.
func (c *countingReader) maxReads() (max, total int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.reads {
		if n > max {
			max = n
		}
		total += n
	}
	return max, total
}

// svcOpts configures startService.
type svcOpts struct {
	// inject wraps the backing file in a fault injector.
	inject *faultio.InjectorConfig
	// cacheBytes sets the server cache capacity (0 = whole dataset).
	cacheBytes int64
	// count wraps the backing file in a countingReader.
	count bool
	// wrap wraps the backing reader (after count, before inject).
	wrap func(store.BlockReader) store.BlockReader
	// prefetch enables server-side view-driven prefetch.
	prefetch bool
	// corrupt flips one on-disk byte of this block before the file is opened.
	corrupt *grid.BlockID
	// mutate edits the server config before NewServer.
	mutate func(*Config)
	// scale overrides the dataset downscale (default 1/32 → 32³ voxels).
	scale float64
	// block overrides the cubic block's edge in voxels (default 8 → 2 KiB).
	block int
	// visRadius overrides the visibility table's fixed vicinal radius
	// (default 0.3).
	visRadius float64
	// transport is what the server listens on: "pipe" (the default) or
	// "tcp".
	transport string
}

type svcFixture struct {
	g     *grid.Grid
	bf    *store.BlockFile
	count *countingReader // nil unless opts.count
	inj   *faultio.Injector
	cache *store.MemCache
	imp   *entropy.Table
	vis   *visibility.Table
	srv   *Server
	lis   *testutil.PipeListener // nil on the tcp transport
	dial  dialFunc
}

// dialFunc is ClientConfig.Dial's shape.
type dialFunc = func(ctx context.Context, addr string) (net.Conn, error)

// transports are the two ways sendRun's segments leave the server: through
// the session's buffered writer (the in-process pipe, like any conn that is
// not a *net.TCPConn) and as one vectored write (loopback TCP). The
// wire-path tests run on both.
var transports = []string{"pipe", "tcp"}

// listen serves srv on a fresh listener of the given transport, closed with
// the test, and returns it with the way to dial it.
func listen(t testing.TB, srv *Server, transport string) (net.Listener, dialFunc) {
	t.Helper()
	if transport == "tcp" {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback listen unavailable: %v", err)
		}
		go srv.Serve(l)
		t.Cleanup(func() { l.Close() })
		return l, func(ctx context.Context, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", l.Addr().String())
		}
	}
	lis := testutil.NewPipeListener()
	go srv.Serve(lis)
	t.Cleanup(func() { lis.Close() })
	return lis, lis.Dial
}

// startService builds the full server stack — ball dataset on disk, optional
// fault injection, shared cache, server on a listener of the chosen
// transport — and tears it down with the test.
func startService(t testing.TB, o svcOpts) *svcFixture {
	t.Helper()
	scale := o.scale
	if scale == 0 {
		scale = 1.0 / 32 // 32³
	}
	edge := o.block
	if edge == 0 {
		edge = 8
	}
	ds := volume.Ball().Scale(scale)
	g, err := ds.Grid(grid.Dims{X: edge, Y: edge, Z: edge})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ball.bvol")
	if err := store.Write(path, ds, g, 0); err != nil {
		t.Fatal(err)
	}
	if o.corrupt != nil {
		corruptBlock(t, path, g, *o.corrupt)
	}
	bf, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bf.Close() })
	f := &svcFixture{g: g, bf: bf}
	var reader store.BlockReader = bf
	if o.count {
		f.count = newCountingReader(bf)
		reader = f.count
	}
	if o.wrap != nil {
		reader = o.wrap(reader)
	}
	if o.inject != nil {
		f.inj = faultio.NewInjector(reader, *o.inject)
		reader = f.inj
	}
	capacity := o.cacheBytes
	if capacity <= 0 {
		capacity = int64(g.NumBlocks()) * bf.BlockBytes(0)
	}
	f.cache, err = store.NewMemCache(reader, capacity, cache.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	f.imp, f.vis = prefetchTables(t, ds, g, o.visRadius)
	cfg := Config{Cache: f.cache, Grid: g, Header: bf.Header()}
	if o.prefetch {
		cfg.Vis, cfg.Imp, cfg.Sigma = f.vis, f.imp, 0
	}
	if o.mutate != nil {
		o.mutate(&cfg)
	}
	f.srv, err = NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.srv.Close) // runs after the listener's own cleanup, registered next
	var l net.Listener
	l, f.dial = listen(t, f.srv, o.transport)
	f.lis, _ = l.(*testutil.PipeListener)
	return f
}

// prefetchTables builds the entropy table and the T_visible table
// (20° view, fixed vicinal radius visRadius, 0.3 when 0) that the fixtures'
// prefetch planners read.
func prefetchTables(t testing.TB, ds *volume.Dataset, g *grid.Grid, visRadius float64) (*entropy.Table, *visibility.Table) {
	t.Helper()
	if visRadius == 0 {
		visRadius = 0.3
	}
	vis, err := visibility.NewTable(g, visibility.Options{
		NAzimuth: 16, NElevation: 8, NDistance: 2,
		RMin: 2.5, RMax: 3.5,
		ViewAngle: vec.Radians(20),
		Radius:    radius.Fixed(visRadius),
	})
	if err != nil {
		t.Fatal(err)
	}
	return entropy.Build(ds, g, entropy.Options{}), vis
}

// corruptBlock flips one byte inside the block's on-disk payload, leaving
// the stored checksum stale: the v2 read path must reject the block.
func corruptBlock(t testing.TB, path string, g *grid.Grid, id grid.BlockID) {
	t.Helper()
	off := int64(40 + 4*g.NumBlocks()) // header + checksum table
	for b := grid.BlockID(0); b < id; b++ {
		off += g.VoxelCount(b) * 4
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var one [1]byte
	if _, err := f.ReadAt(one[:], off+10); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0xFF
	if _, err := f.WriteAt(one[:], off+10); err != nil {
		t.Fatal(err)
	}
}

// fastRetry mirrors the ooc test helper: exercises backoff without waiting.
func fastRetry(attempts int) *faultio.Retrier {
	return &faultio.Retrier{
		MaxAttempts: attempts,
		BaseDelay:   10 * time.Microsecond,
		MaxDelay:    100 * time.Microsecond,
		Seed:        11,
	}
}

// quickBreaker is ClientConfig.newBreaker for a test that must see an
// endpoint breaker open after threshold failures and probe again after
// backoff, not after the production constants.
func quickBreaker(threshold int, backoff time.Duration) func() *breaker.Breaker {
	return func() *breaker.Breaker { return breaker.New(threshold, backoff, breakerMaxBackoff) }
}

// dialService connects a RemoteReader to the fixture over its transport.
func dialService(t testing.TB, f *svcFixture, conns int) *RemoteReader {
	t.Helper()
	r, err := Dial(ClientConfig{Dial: f.dial, Conns: conns, Retry: fastRetry(3)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestDialLearnsGeometry(t *testing.T) {
	f := startService(t, svcOpts{})
	r := dialService(t, f, 2)
	if r.Header() != f.bf.Header() {
		t.Errorf("remote header = %+v, want %+v", r.Header(), f.bf.Header())
	}
	if r.g.NumBlocks() != f.g.NumBlocks() {
		t.Errorf("remote grid has %d blocks, want %d", r.g.NumBlocks(), f.g.NumBlocks())
	}
}

// castagnoli is the tests' own table: with blockCRC, the reference that
// shares nothing with the codec (internal/f32le) under test.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// blockCRC is the CRC32C of vals' little-endian bytes — what the block file
// stores per block — by a loop that shares nothing with the wire codec
// under test.
func blockCRC(vals []float32) uint32 {
	var le [4]byte
	crc := uint32(0)
	for _, v := range vals {
		binary.LittleEndian.PutUint32(le[:], math.Float32bits(v))
		crc = crc32.Update(crc, castagnoli, le[:])
	}
	return crc
}

// blockMatchesFile reports whether a delivered block is the fixture's ground
// truth, every voxel of it: the geometry's count and the block file's
// checksum.
func blockMatchesFile(f *svcFixture, id grid.BlockID, vals []float32) bool {
	want, _ := f.bf.BlockChecksum(id)
	return int64(len(vals)) == f.g.VoxelCount(id) && blockCRC(vals) == want
}

func assertBlock(t testing.TB, f *svcFixture, id grid.BlockID, vals []float32) {
	t.Helper()
	if !blockMatchesFile(f, id, vals) {
		t.Fatalf("block %d: the %d voxels delivered (crc32c 0x%08x) are not the block file's",
			id, len(vals), blockCRC(vals))
	}
}

// readAllMatchesFile reads every block through r in one batch and checks
// each against the fixture's file.
func readAllMatchesFile(t *testing.T, f *svcFixture, r *RemoteReader) {
	t.Helper()
	ids := f.g.All()
	vals, errs := r.ReadBlocks(context.Background(), ids)
	for i, id := range ids {
		if errs[i] != nil {
			t.Fatalf("block %d: %v", id, errs[i])
		}
		assertBlock(t, f, id, vals[i])
	}
}

// TestRemoteValuesMatchLocal reads every block through the full wire stack,
// on each transport, and compares it whole with the block file: framing,
// run splitting, and CRC verification must be transparent.
func TestRemoteValuesMatchLocal(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr, func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			f := startService(t, svcOpts{transport: tr, mutate: func(c *Config) {
				c.runBytes = 4096 // force multi-frame responses
			}})
			r := dialService(t, f, 2)
			readAllMatchesFile(t, f, r)
			// Single-block path too.
			id := grid.BlockID(f.g.NumBlocks() / 2)
			got, err := r.ReadBlock(id)
			if err != nil {
				t.Fatalf("ReadBlock: %v", err)
			}
			assertBlock(t, f, id, got)
			st := r.Snapshot()
			if st.BlocksServed == 0 || st.BytesReceived == 0 || st.ChecksumErrors != 0 {
				t.Errorf("client stats = %+v", st)
			}
		})
	}
}

// TestBigEndianHostRoundTrip takes the payload view away, as f32le.Bytes
// does on a big-endian host, so the server stages encoded payload bytes
// instead of views of cache memory — the branch of sendRun a big-endian host
// executes, which on the little-endian machines tests run on nothing else
// reaches. (The per-value loops themselves are pinned in internal/f32le.)
func TestBigEndianHostRoundTrip(t *testing.T) {
	// Restored last (cleanups run LIFO), once no session that calls it is
	// left.
	t.Cleanup(func() { payloadView = f32le.Bytes })
	payloadView = func([]float32) []byte { return nil }
	for _, tr := range transports {
		t.Run(tr, func(t *testing.T) {
			f := startService(t, svcOpts{transport: tr})
			readAllMatchesFile(t, f, dialService(t, f, 1))
		})
	}
}

// TestServerChecksumIsRemembered: the server takes a block's CRC once, the
// first time it sends the block, and sends that sum ever after — the served
// volume is immutable, so the sum belongs to the block id. Two reads of one
// block therefore cost one server-side CRC, and a cached copy that rots
// between them goes out under the sum of the bytes it should hold: the
// client's check catches it. A sum taken afresh at every send blesses the
// rot, and the wrong voxels are delivered as the block.
func TestServerChecksumIsRemembered(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr, func(t *testing.T) {
			f := startService(t, svcOpts{transport: tr})
			r := dialService(t, f, 1)
			const id, neighbour = grid.BlockID(7), grid.BlockID(8)
			for range 2 {
				got, err := r.ReadBlock(id)
				if err != nil {
					t.Fatal(err)
				}
				assertBlock(t, f, id, got)
			}
			if n := f.srv.sumsTaken.Load(); n != 1 {
				t.Fatalf("two sends of one block took %d checksums at the server, want 1", n)
			}
			// No send is in flight: both reads have returned.
			var vals [1][]float32
			if miss := f.cache.GetResident(vals[:], []grid.BlockID{id}, nil); len(miss) != 0 {
				t.Fatal("the block is not in the server's cache")
			}
			cached := vals[0]
			cached[3] = math.Float32frombits(math.Float32bits(cached[3]) ^ 0x400)
			got, err := r.ReadBlock(id)
			if !errors.Is(err, faultio.ErrChecksum) {
				t.Fatalf("a rotted server copy was delivered as %d voxels, err = %v; want a checksum fault", len(got), err)
			}
			if st := r.Snapshot(); st.ChecksumErrors == 0 || st.TransportErrors != 0 {
				t.Errorf("client stats = %+v, want the rot counted as a checksum error on a live conn", st)
			}
			other, err := r.ReadBlock(neighbour)
			if err != nil {
				t.Fatalf("the block beside the rotted one: %v", err)
			}
			assertBlock(t, f, neighbour, other)
			if n := f.srv.sumsTaken.Load(); n != 2 {
				t.Errorf("%d checksums taken after a first send of a second block, want 2", n)
			}
		})
	}
}

// scriptedReader fails chosen blocks with chosen errors and reads the rest
// from the file.
type scriptedReader struct {
	bf   *store.BlockFile
	errs map[grid.BlockID]error
}

func (s scriptedReader) ReadBlock(id grid.BlockID) ([]float32, error) {
	if err := s.errs[id]; err != nil {
		return nil, err
	}
	return s.bf.ReadBlock(id)
}

func (s scriptedReader) ReadBlocks(ctx context.Context, ids []grid.BlockID) ([][]float32, []error) {
	return testutil.ReadEach(ctx, ids, s.ReadBlock)
}

func (s scriptedReader) RecycleBlockBuf(vals []float32) { s.bf.RecycleBlockBuf(vals) }

// TestMixedStatusRun pins the encoder's segment assembly where it is
// easiest to get wrong: one blocks frame carrying payload entries
// interleaved with every kind of entry that has none — a transient fault, a
// permanent one, disk rot, and a cluster redirect with its epoch. A raw
// client walks the frame, on each transport: every status in request order,
// every payload matching the block file's CRC, nothing trailing.
func TestMixedStatusRun(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr, func(t *testing.T) {
			f := startService(t, svcOpts{})
			m := &shard.Map{Epoch: 5, Seed: 42, VNodes: shard.DefaultVNodes, Shards: []shard.Shard{
				{ID: "a", Addrs: []string{"node:a"}}, {ID: "b", Addrs: []string{"node:b"}}}}
			ring := m.Ring()
			// Shard a's first five blocks get one status each (OK twice, so
			// a payload follows a fault as well as precedes one); shard b's
			// first block is asked of a too, for the redirect.
			var own []grid.BlockID
			other := grid.BlockID(-1)
			for _, id := range f.g.All() {
				if ring.OwnerBlock(id) == 0 && len(own) < 5 {
					own = append(own, id)
				} else if ring.OwnerBlock(id) == 1 && other < 0 {
					other = id
				}
			}
			ids := []grid.BlockID{own[0], own[1], other, own[2], own[3], own[4]}
			want := []blockStatus{statusOK, statusTransient, statusRedirect, statusPermanent, statusChecksum, statusOK}
			mc, err := store.NewMemCache(scriptedReader{bf: f.bf, errs: map[grid.BlockID]error{
				own[1]: faultio.ErrTransient,
				own[2]: faultio.ErrPermanent,
				own[3]: faultio.Permanent(faultio.ErrChecksum),
			}}, 1<<20, cache.NewLRU())
			if err != nil {
				t.Fatal(err)
			}
			srv, err := NewServer(Config{Cache: mc, Grid: f.g, Header: f.bf.Header(),
				ShardMap: m, ShardID: "a", HeartbeatInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Close)
			_, dial := listen(t, srv, tr)
			conn, err := dial(context.Background(), "")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			var hello enc
			hello.u32(protoMagic)
			hello.u16(ProtoVersion)
			if err := writeFrameTo(conn, msgHello, hello.b); err != nil {
				t.Fatal(err)
			}
			br := bufio.NewReader(conn)
			if typ, _, err := readFrame(br, nil); err != nil || typ != msgWelcome {
				t.Fatalf("welcome: typ=%d err=%v", typ, err)
			}
			var req enc
			req.u64(3)
			req.u32(0)
			req.u32(uint32(len(ids)))
			for _, id := range ids {
				req.u32(uint32(id))
			}
			if err := writeFrameTo(conn, msgRead, req.b); err != nil {
				t.Fatal(err)
			}
			typ, payload, err := readFrame(br, nil)
			if err != nil || typ != msgBlocks {
				t.Fatalf("blocks: typ=%d err=%v", typ, err)
			}
			// The frame goes through the client's own parser, which holds each
			// payload against its trailing CRC; one tag for exactly these ids
			// makes "one run of all of them" the only frame that answers it.
			feed := newBlocksFeed(t, f.g, 3, ids)
			if err := feed.read(t, frameBytes(t, msgBlocks, payload)); err != nil {
				t.Fatalf("blocks frame did not parse cleanly: %v", err)
			}
			if feed.p.answered != len(ids) {
				t.Fatalf("the frame answers %d of %d blocks, want one run of all", feed.p.answered, len(ids))
			}
			for k, st := range want {
				vals, err := feed.p.vals[k], feed.p.errs[k]
				switch st {
				case statusOK:
					sum, _ := f.bf.BlockChecksum(ids[k])
					if err != nil || crc32.Checksum(f32le.Append(nil, vals), castagnoli) != sum {
						t.Fatalf("entry %d (block %d): %v; payload does not match the block file's crc", k, ids[k], err)
					}
				case statusRedirect:
					var re *redirectError
					if !errors.As(err, &re) || re.epoch != m.Epoch {
						t.Fatalf("entry %d (block %d) = %v, want a redirect at epoch %d", k, ids[k], err, m.Epoch)
					}
				default:
					if err == nil || err.Error() != blockErr(st, ids[k]).Error() {
						t.Fatalf("entry %d (block %d) = %v, want status %d", k, ids[k], err, st)
					}
				}
			}
			if typ, _, err := readFrame(br, nil); err != nil || typ != msgDone {
				t.Fatalf("done: typ=%d err=%v", typ, err)
			}
		})
	}
}

// flipPayloadBit is a frame-aware man in the middle on the server→client
// half of a connection: it re-frames what the server sends and flips one bit
// in the first payload byte of every blocks frame's first entry, leaving
// lengths and checksums as sent — in-transit corruption that lands where
// only the payload CRC can see it, whatever the transport underneath.
func flipPayloadBit(dial dialFunc) dialFunc {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		up, err := dial(ctx, addr)
		if err != nil {
			return nil, err
		}
		client, mid := net.Pipe()
		go func() { // client→server, untouched; ends when either side closes
			io.Copy(up, mid)
			up.Close()
		}()
		go func() {
			defer mid.Close()
			br := bufio.NewReader(up)
			for {
				typ, payload, err := readFrame(br, nil)
				if err != nil {
					return
				}
				if typ == msgBlocks {
					payload[runPreludeBytes+1+4] ^= 0x10
				}
				if writeFrameTo(mid, typ, payload) != nil {
					return
				}
			}
		}()
		return client, nil
	}
}

// TestWireCRCReject: a payload bit flipped between server and client must
// come back as a retryable checksum fault for that block alone — the rest
// of the run is delivered intact, the connection stays up, and a re-read of
// the failed block over the same conn is answered (corrupted again here,
// since the wire is). Run on each transport.
func TestWireCRCReject(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr, func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			f := startService(t, svcOpts{transport: tr, mutate: func(c *Config) {
				c.HeartbeatInterval = -1
			}})
			r, err := Dial(ClientConfig{Dial: flipPayloadBit(f.dial), Conns: 1, Retry: fastRetry(1)})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			ids := f.g.All()
			vals, errs := r.ReadBlocks(context.Background(), ids)
			if vals[0] != nil || !errors.Is(errs[0], faultio.ErrChecksum) || !faultio.Retryable(errs[0]) {
				t.Fatalf("flipped block: vals=%v err=%v, want a retryable checksum fault", vals[0] != nil, errs[0])
			}
			for i, id := range ids[1:] {
				if errs[i+1] != nil {
					t.Fatalf("block %d behind the corrupted one: %v", id, errs[i+1])
				}
				assertBlock(t, f, id, vals[i+1])
			}
			if _, err := r.ReadBlock(ids[0]); !errors.Is(err, faultio.ErrChecksum) {
				t.Fatalf("re-read over the same wire = %v, want the checksum fault again", err)
			}
			st := r.Snapshot()
			if st.ChecksumErrors != 2 || st.TransportErrors != 0 || st.Dials != 1 {
				t.Errorf("checksum rejects must not tear the conn: %+v", st)
			}
		})
	}
}

// TestNewServerRefusesRecyclingCache: a response is written from
// cache-owned slices after the cache lock is gone, so a cache that reuses
// evicted buffers could rewrite one mid-write; NewServer must say so
// instead of serving — whether the reuse was enabled by hand or comes from
// an ooc.Runtime driving the cache.
func TestNewServerRefusesRecyclingCache(t *testing.T) {
	f := startService(t, svcOpts{})
	for _, tc := range []struct {
		name    string
		recycle func(*store.MemCache)
	}{
		{"EnableRecycling", (*store.MemCache).EnableRecycling},
		{"ooc.Runtime", func(mc *store.MemCache) {
			rt, err := ooc.New(mc, f.vis, f.imp, ooc.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rt.Close()
		}},
	} {
		mc, err := store.NewMemCache(f.bf, 1<<20, cache.NewLRU())
		if err != nil {
			t.Fatal(err)
		}
		tc.recycle(mc)
		if !mc.RecyclingEnabled() {
			t.Fatalf("%s: BlockFile stopped being a recycler; this test needs one", tc.name)
		}
		_, err = NewServer(Config{Cache: mc, Grid: f.g, Header: f.bf.Header()})
		if err == nil || !strings.Contains(err.Error(), "recycles") {
			t.Fatalf("%s: NewServer over a recycling cache = %v, want a refusal naming recycling", tc.name, err)
		}
	}
}

// TestNewServerRefusesOverFrameBlock: run splitting never goes below one
// block, so a block whose entry cannot fit maxFrameBytes could never be
// answered — every read of it used to wait out the client's deadline.
// 256³ voxels is exactly 64 MiB of payload: refused; one slab thinner fits.
func TestNewServerRefusesOverFrameBlock(t *testing.T) {
	f := startService(t, svcOpts{})
	for _, tc := range []struct {
		block grid.Dims
		ok    bool
	}{
		{grid.Dims{X: 256, Y: 256, Z: 256}, false},
		{grid.Dims{X: 256, Y: 256, Z: 255}, true},
	} {
		g, err := grid.New(tc.block, tc.block)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(Config{Cache: f.cache, Grid: g, Header: f.bf.Header()})
		if err == nil {
			srv.Close()
		}
		if tc.ok && err != nil {
			t.Errorf("%v blocks fit one frame but were refused: %v", tc.block, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "frame")) {
			t.Errorf("%v blocks: NewServer = %v, want a refusal naming the frame limit", tc.block, err)
		}
	}
}

// TestNewServerRefusesSubMillisecondHeartbeat: the welcome advertises the
// heartbeat in whole milliseconds, so 500µs would go out as 0 — "liveness
// off" to the client — while the server pinged and enforced deadlines at
// 2 000 a second. NewServer refuses it; 1ms, the default and off all pass.
func TestNewServerRefusesSubMillisecondHeartbeat(t *testing.T) {
	f := startService(t, svcOpts{})
	for _, tc := range []struct {
		hb time.Duration
		ok bool
	}{
		{time.Nanosecond, false},
		{500 * time.Microsecond, false},
		{time.Millisecond, true},
		{0, true},
		{-1, true},
	} {
		srv, err := NewServer(Config{Cache: f.cache, Grid: f.g, Header: f.bf.Header(), HeartbeatInterval: tc.hb})
		if err == nil {
			srv.Close()
		}
		if tc.ok && err != nil {
			t.Errorf("heartbeat %v refused: %v", tc.hb, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "heartbeat")) {
			t.Errorf("heartbeat %v: NewServer = %v, want a refusal naming the heartbeat", tc.hb, err)
		}
	}
}

// TestEndToEndTwoSessionsSharedCache is the headline acceptance test: an
// in-process server, two concurrent ooc.Runtime sessions reading through
// RemoteReaders, and the backing store is hit at most once per cold block
// across both sessions — the shared cache's singleflight spans the network.
// Teardown must leak no goroutines (checked under -race by the race target).
func TestEndToEndTwoSessionsSharedCache(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	f := startService(t, svcOpts{count: true, prefetch: true})

	const sessions = 2
	readers := make([]*RemoteReader, sessions)
	runtimes := make([]*ooc.Runtime, sessions)
	for s := 0; s < sessions; s++ {
		readers[s] = dialService(t, f, 2)
		mc, err := store.NewMemCache(readers[s],
			int64(f.g.NumBlocks())*f.bf.BlockBytes(0), cache.NewLRU())
		if err != nil {
			t.Fatal(err)
		}
		rt, err := ooc.New(mc, f.vis, f.imp, ooc.Options{Sigma: 0, Retry: fastRetry(3)})
		if err != nil {
			t.Fatal(err)
		}
		runtimes[s] = rt
	}

	theta := vec.Radians(20)
	path := camera.Orbit(3, 6)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ctx := context.Background()
			for i, pos := range path.Steps {
				readers[s].SendView(ctx, pos) // drive server-side prefetch
				visible := visibility.VisibleSet(f.g, camera.Camera{Pos: pos, ViewAngle: theta})
				data, rep, err := runtimes[s].Frame(ctx, pos, visible)
				if err != nil {
					t.Errorf("session %d frame %d: %v", s, i, err)
					return
				}
				if rep.Degraded {
					t.Errorf("session %d frame %d degraded without faults: %+v", s, i, rep)
					return
				}
				for j := range data {
					if int64(len(data[j])) != f.g.VoxelCount(visible[j]) {
						t.Errorf("session %d block %d: %d values", s, visible[j], len(data[j]))
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()

	max, total := f.count.maxReads()
	if total == 0 {
		t.Fatal("no backing-store reads at all")
	}
	if max > 1 {
		t.Errorf("a block was read %d times from the backing store; singleflight across sessions broken", max)
	}
	st := f.srv.Snapshot()
	// Each client pools up to 2 connections, and the server counts sessions
	// per connection.
	if st.Sessions < sessions || st.Requests == 0 || st.BlocksOK == 0 {
		t.Errorf("server stats = %+v", st)
	}
	if st.ViewUpdates == 0 {
		t.Error("no view updates reached the server")
	}

	// Orderly shutdown: runtimes, clients, then the server; afterwards every
	// session/worker goroutine must be gone.
	for s := 0; s < sessions; s++ {
		runtimes[s].Close()
		readers[s].Close()
	}
	f.lis.Close()
	f.srv.Close()
	if got := f.srv.Snapshot().ActiveSessions; got != 0 {
		t.Errorf("ActiveSessions = %d after Close", got)
	}
	// testutil.VerifyNoLeaks asserts every session/worker goroutine is gone.
}

// TestRemoteTransientFaultsDegradeFrames: with the server's storage failing
// transiently most of the time and retries too few to absorb it all, frames
// must come back degraded — never as frame-level errors.
// gateReader holds every batch read at a gate until release is closed, or
// until the read's own ctx ends, which fails it with the ctx's error.
type gateReader struct {
	store.BlockReader
	entered chan struct{} // one signal per batch read reaching the gate
	release chan struct{}
}

func (g *gateReader) ReadBlocks(ctx context.Context, ids []grid.BlockID) ([][]float32, []error) {
	g.entered <- struct{}{}
	select {
	case <-g.release:
	case <-ctx.Done():
	}
	return g.BlockReader.ReadBlocks(ctx, ids)
}

// TestCanceledSessionSparesSharedRead: two sessions read one block through
// the server's shared cache, the second joining the first's read while it
// waits at the gate. The first session ends mid-read — its client closes, so
// the server cancels its requests. The second session's read must still
// return the block's voxels, with no fault answered for it: the shared read
// belongs to the cache, not to the session that started it.
func TestCanceledSessionSparesSharedRead(t *testing.T) {
	gate := &gateReader{entered: make(chan struct{}, 4), release: make(chan struct{})}
	f := startService(t, svcOpts{wrap: func(r store.BlockReader) store.BlockReader {
		gate.BlockReader = r
		return gate
	}})
	a, b := dialService(t, f, 1), dialService(t, f, 1)
	const id = grid.BlockID(5)

	aDone := make(chan error, 1)
	go func() {
		_, err := readOne(context.Background(), a, id)
		aDone <- err
	}()
	<-gate.entered // session A's read holds the block in flight

	type result struct {
		vals []float32
		err  error
	}
	bDone := make(chan result, 1)
	go func() {
		v, err := readOne(context.Background(), b, id)
		bDone <- result{v, err}
	}()
	time.Sleep(20 * time.Millisecond) // let session B's request join the read
	a.Close()
	<-aDone
	var got result
	select {
	case <-gate.entered: // B's request reads the block again
		close(gate.release)
		got = <-bDone
	case got = <-bDone:
		close(gate.release)
	}
	if got.err != nil {
		t.Fatalf("session B: %v", got.err)
	}
	assertBlock(t, f, id, got.vals)
	if st := b.Snapshot(); st.RemoteFaults != 0 {
		t.Errorf("session B was answered %d faults", st.RemoteFaults)
	}
}

func TestRemoteTransientFaultsDegradeFrames(t *testing.T) {
	f := startService(t, svcOpts{
		inject:     &faultio.InjectorConfig{Seed: 7, FailRate: 0.6},
		cacheBytes: 4, // nothing caches server-side: every read hits the injector
	})
	r := dialService(t, f, 2)
	mc, err := store.NewMemCache(r, 4, cache.NewLRU()) // client side uncached too
	if err != nil {
		t.Fatal(err)
	}
	rt, err := ooc.New(mc, f.vis, f.imp, ooc.Options{
		Sigma: f.imp.MaxScore() + 1, // no prefetch: keep the fault accounting legible
		Retry: fastRetry(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	theta := vec.Radians(20)
	degraded, served := 0, 0
	for i, pos := range camera.Orbit(3, 8).Steps {
		visible := visibility.VisibleSet(f.g, camera.Camera{Pos: pos, ViewAngle: theta})
		data, rep, err := rt.Frame(context.Background(), pos, visible)
		if err != nil {
			t.Fatalf("frame %d returned an error instead of degrading: %v", i, err)
		}
		if rep.Degraded {
			degraded++
			for _, id := range rep.Missing {
				if !faultio.Retryable(rep.Failures[id]) {
					t.Errorf("transient server fault arrived non-retryable: %v", rep.Failures[id])
				}
			}
		}
		for j := range data {
			if data[j] != nil {
				served++
			}
		}
	}
	if degraded == 0 {
		t.Error("no degraded frames at a 60% fault rate — injector not in the path?")
	}
	if served == 0 {
		t.Error("no blocks served at all; degradation should be partial")
	}
	if st := f.srv.Snapshot(); st.BlocksFailed == 0 {
		t.Errorf("server reports no failed blocks: %+v", st)
	}
	if st := r.Snapshot(); st.RemoteFaults == 0 {
		t.Errorf("client reports no remote faults: %+v", st)
	}
}

// TestLoadShedDegradesFrames forces admission control to refuse everything
// (a budget smaller than any block) and checks the full path stays graceful:
// shed requests come back as retryable ErrShed faults, and ooc frames
// degrade instead of erroring.
func TestLoadShedDegradesFrames(t *testing.T) {
	f := startService(t, svcOpts{mutate: func(c *Config) {
		c.MaxInflightBytes = 4 // below one block: every request is shed
		c.MaxQueueWait = time.Millisecond
	}})
	r := dialService(t, f, 2)
	mc, err := store.NewMemCache(r, 4, cache.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := ooc.New(mc, f.vis, f.imp, ooc.Options{
		Sigma: f.imp.MaxScore() + 1,
		Retry: fastRetry(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	cam := camera.Camera{Pos: vec.New(0, 0, 3), ViewAngle: vec.Radians(20)}
	visible := visibility.VisibleSet(f.g, cam)
	data, rep, err := rt.Frame(context.Background(), cam.Pos, visible)
	if err != nil {
		t.Fatalf("shed storm returned a frame-level error: %v", err)
	}
	if !rep.Degraded || len(rep.Missing) != len(visible) {
		t.Fatalf("expected a fully degraded frame, got %+v", rep)
	}
	for i := range data {
		if data[i] != nil {
			t.Error("shed block has data")
		}
	}
	for _, id := range rep.Missing {
		err := rep.Failures[id]
		if !errors.Is(err, ErrShed) {
			t.Errorf("block %d failure is not ErrShed: %v", id, err)
		}
		if !faultio.Retryable(err) {
			t.Errorf("shed must stay retryable: %v", err)
		}
	}
	if st := f.srv.Snapshot(); st.ShedRequests == 0 {
		t.Errorf("server shed nothing: %+v", st)
	}
	if st := r.Snapshot(); st.ShedRequests == 0 {
		t.Errorf("client saw no sheds: %+v", st)
	}
}

// TestByteSem pins the admission semaphore without a server, each case on
// a budget of 10 units: a waiter queued behind a head-of-line request that
// gave up is admitted as soon as it fits, not left asleep until some later
// Release or its own deadline; admission is FIFO, so a small request does
// not pass a large one at the head; and a waiter whose wait ends as it is
// granted hands the units back.
func TestByteSem(t *testing.T) {
	ctx := context.Background()
	// queued waits until s has n waiters.
	queued := func(t *testing.T, s *byteSem, n int) {
		t.Helper()
		waitFor(t, 2*time.Second, "waiters to queue", func() bool {
			s.mu.Lock()
			defer s.mu.Unlock()
			return len(s.waiters) == n
		})
	}
	// acquire runs Acquire on its own goroutine; its error arrives on the
	// returned channel.
	acquire := func(s *byteSem, ctx context.Context, n int64, maxWait time.Duration) <-chan error {
		done := make(chan error, 1)
		go func() { done <- s.Acquire(ctx, n, maxWait) }()
		return done
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, s *byteSem)
	}{
		{"shed head wakes the next", func(t *testing.T, s *byteSem) {
			if err := s.Acquire(ctx, 3, time.Second); err != nil {
				t.Fatal(err)
			}
			head := acquire(s, ctx, 10, 20*time.Millisecond)
			queued(t, s, 1)
			start := time.Now()
			next := acquire(s, ctx, 5, 2*time.Second)
			if err := <-head; !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("head of line: %v, want its wait to expire", err)
			}
			if err := <-next; err != nil {
				t.Fatalf("5 units with 7 free behind an expired head: %v after %v", err, time.Since(start))
			}
			if waited := time.Since(start); waited > time.Second {
				t.Errorf("admitted after %v; the head gave up after 20ms", waited)
			}
			if got := s.InUse(); got != 8 {
				t.Errorf("InUse = %d, want 8", got)
			}
		}},
		{"FIFO", func(t *testing.T, s *byteSem) {
			if err := s.Acquire(ctx, 10, time.Second); err != nil {
				t.Fatal(err)
			}
			var done []<-chan error
			for _, n := range []int64{6, 2, 2} {
				done = append(done, acquire(s, ctx, n, time.Minute))
				queued(t, s, len(done))
			}
			s.Release(4) // 4 free: the 2s fit, but the 6 at the head does not
			s.mu.Lock()
			waiting := len(s.waiters)
			s.mu.Unlock()
			if waiting != 3 || s.InUse() != 6 {
				t.Fatalf("after Release(4): %d waiting, %d in use; want 3 and 6", waiting, s.InUse())
			}
			s.Release(6)
			for i, ch := range done {
				if err := <-ch; err != nil {
					t.Errorf("waiter %d: %v", i, err)
				}
			}
			if got := s.InUse(); got != 10 {
				t.Errorf("InUse = %d, want 10", got)
			}
		}},
		{"cancel after grant", func(t *testing.T, s *byteSem) {
			for i := 0; i < 20; i++ {
				if err := s.Acquire(ctx, 10, time.Second); err != nil {
					t.Fatal(err)
				}
				wctx, cancel := context.WithCancel(ctx)
				done := acquire(s, wctx, 10, time.Minute)
				queued(t, s, 1)
				// Release's body under a lock held across the cancel: the
				// waiter, woken by its context, is granted while it waits
				// for the lock.
				s.mu.Lock()
				cancel()
				time.Sleep(5 * time.Millisecond)
				s.avail += 10
				s.admitLocked()
				s.mu.Unlock()
				if err := <-done; err == nil {
					s.Release(10) // it saw the grant first after all
				}
				if got := s.InUse(); got != 0 {
					t.Fatalf("iteration %d: InUse = %d after every holder let go, want 0", i, got)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newByteSem(10)) })
	}
}

// readOne reads one block through r's batch path under ctx.
func readOne(ctx context.Context, r *RemoteReader, id grid.BlockID) ([]float32, error) {
	vals, errs := r.ReadBlocks(ctx, []grid.BlockID{id})
	return vals[0], errs[0]
}

// TestFaultClassesSurviveWire pins the satellite: the faultio classification
// a local reader would produce is identical after a round trip through the
// server — transient stays retryable, permanent stays permanent, and on-disk
// checksum rot stays a permanent ErrChecksum.
func TestFaultClassesSurviveWire(t *testing.T) {
	ctx := context.Background()
	t.Run("transient", func(t *testing.T) {
		f := startService(t, svcOpts{
			inject:     &faultio.InjectorConfig{Seed: 3, FailRate: 1},
			cacheBytes: 4,
		})
		r := dialService(t, f, 1)
		_, err := readOne(ctx, r, 0)
		if err == nil {
			t.Fatal("injected fault not surfaced")
		}
		if !errors.Is(err, faultio.ErrTransient) || !faultio.Retryable(err) {
			t.Errorf("transient class lost over the wire: %v", err)
		}
	})
	t.Run("permanent", func(t *testing.T) {
		f := startService(t, svcOpts{
			inject:     &faultio.InjectorConfig{FailBlocks: []grid.BlockID{3}},
			cacheBytes: 4,
		})
		r := dialService(t, f, 1)
		_, err := readOne(ctx, r, 3)
		if err == nil {
			t.Fatal("lost block not surfaced")
		}
		if !errors.Is(err, faultio.ErrPermanent) || faultio.Retryable(err) {
			t.Errorf("permanent class lost over the wire: %v", err)
		}
		if vals, err := readOne(ctx, r, 4); err != nil || vals == nil {
			t.Errorf("healthy neighbor failed: %v", err)
		}
	})
	t.Run("checksum", func(t *testing.T) {
		bad := grid.BlockID(5)
		f := startService(t, svcOpts{corrupt: &bad, cacheBytes: 4})
		r := dialService(t, f, 1)
		_, err := readOne(ctx, r, bad)
		if err == nil {
			t.Fatal("corrupted block not surfaced")
		}
		if !errors.Is(err, faultio.ErrChecksum) {
			t.Errorf("checksum class lost over the wire: %v", err)
		}
		if !errors.Is(err, faultio.ErrPermanent) || faultio.Retryable(err) {
			t.Errorf("on-disk rot must arrive permanent: %v", err)
		}
		if vals, err := readOne(ctx, r, bad+1); err != nil || vals == nil {
			t.Errorf("healthy neighbor failed: %v", err)
		}
	})
}

// TestInjectorWrapsRemoteReader: the fault harness composes around the
// remote client exactly as around a local file — client-side injected
// faults keep their classes and batch reads keep per-block isolation.
func TestInjectorWrapsRemoteReader(t *testing.T) {
	f := startService(t, svcOpts{})
	r := dialService(t, f, 1)
	inj := faultio.NewInjector(r, faultio.InjectorConfig{FailBlocks: []grid.BlockID{2}})

	if _, err := inj.ReadBlock(2); err == nil {
		t.Fatal("injected permanent fault not surfaced through RemoteReader")
	} else if !errors.Is(err, faultio.ErrPermanent) {
		t.Errorf("wrong class: %v", err)
	}
	vals, errs := inj.ReadBlocks(context.Background(), []grid.BlockID{1, 2, 3})
	if errs[0] != nil || errs[2] != nil {
		t.Errorf("healthy blocks failed: %v %v", errs[0], errs[2])
	}
	if errs[1] == nil || vals[1] != nil {
		t.Error("failed block served despite injection")
	}
	if vals[0] == nil || vals[2] == nil {
		t.Error("healthy blocks empty")
	}
	if inj.Stats().Permanent == 0 {
		t.Error("injector counted nothing")
	}

	// And a MemCache over the injected remote reader works end to end.
	mc, err := store.NewMemCache(inj, 1<<20, cache.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, errs := mc.GetBatch(context.Background(), []grid.BlockID{1}); errs[0] != nil {
		t.Errorf("cache over injected remote reader: %v", errs[0])
	}
}

// TestVersionMismatchRefused speaks the raw protocol with a hello of another
// version — the older 3 (version only, no capability word) and a future one:
// the server must answer one msgError naming the offered version and the
// one it speaks, then close the session without a welcome.
func TestVersionMismatchRefused(t *testing.T) {
	f := startService(t, svcOpts{})
	for _, ver := range []uint16{3, ProtoVersion + 99} {
		conn, err := f.lis.Dial(context.Background(), "")
		if err != nil {
			t.Fatal(err)
		}
		var e enc
		e.u32(protoMagic)
		e.u16(ver)
		errc := make(chan error, 1)
		go func() { errc <- writeFrameTo(conn, msgHello, e.b) }()
		typ, payload, err := readFrame(conn, nil)
		if err != nil {
			t.Fatalf("version %d: no refusal frame: %v", ver, err)
		}
		want := fmt.Sprintf("version %d unsupported (server speaks %d)", ver, ProtoVersion)
		if typ != msgError || !strings.Contains(string(payload), want) {
			t.Errorf("version %d: refusal = type %d %q, want msgError containing %q",
				ver, typ, payload, want)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if _, _, err := readFrame(conn, nil); err == nil {
			t.Errorf("version %d: session stayed open after the refusal", ver)
		}
		conn.Close()
	}
	if st := f.srv.Snapshot(); st.Sessions != 0 {
		t.Errorf("refused hellos counted as sessions: %+v", st)
	}
}

func TestBadMagicRefused(t *testing.T) {
	f := startService(t, svcOpts{})
	conn, err := f.lis.Dial(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var e enc
	e.u32(0xdeadbeef)
	e.u16(ProtoVersion)
	go writeFrameTo(conn, msgHello, e.b)
	typ, _, err := readFrame(conn, nil)
	if err != nil {
		t.Fatalf("no refusal frame: %v", err)
	}
	if typ != msgError {
		t.Errorf("refusal type = %d, want msgError", typ)
	}
}

// TestDialFailsWhenServerGone: a closed listener exhausts the reconnect
// policy and Dial reports it, counting the retries.
func TestDialFailsWhenServerGone(t *testing.T) {
	lis := testutil.NewPipeListener()
	lis.Close()
	_, err := Dial(ClientConfig{
		Dial: lis.Dial,
		Retry: &faultio.Retrier{
			MaxAttempts: 2,
			BaseDelay:   10 * time.Microsecond,
			MaxDelay:    50 * time.Microsecond,
		},
	})
	if err == nil {
		t.Fatal("Dial against a dead listener succeeded")
	}
}

// TestConcurrentSessionsRace is raw-protocol stress for the race detector:
// several clients fire overlapping batch reads and view updates at a small
// shared cache while the server is torn down under them.
func TestConcurrentSessionsRace(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	f := startService(t, svcOpts{
		prefetch:   true,
		cacheBytes: 8 * 2048, // churn: 8 blocks out of 64
	})
	ctx := context.Background()
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		r := dialService(t, f, 2)
		wg.Add(1)
		go func(c int, r *RemoteReader) {
			defer wg.Done()
			ids := f.g.All()
			for i := 0; i < 10; i++ {
				lo := (c*7 + i*5) % len(ids)
				hi := lo + 16
				if hi > len(ids) {
					hi = len(ids)
				}
				r.SendView(ctx, vec.New(0, 0, 3))
				_, errs := r.ReadBlocks(ctx, ids[lo:hi])
				for _, err := range errs {
					if err != nil && !faultio.Retryable(err) {
						t.Errorf("client %d: permanent error on healthy store: %v", c, err)
						return
					}
				}
			}
			r.Close()
		}(c, r)
	}
	wg.Wait()
	f.lis.Close()
	f.srv.Close()
}

// TestReadBlocksHonorsContext: a canceled context fails the batch without
// poisoning the connection pool for later requests.
func TestReadBlocksHonorsContext(t *testing.T) {
	f := startService(t, svcOpts{})
	r := dialService(t, f, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errs := r.ReadBlocks(ctx, []grid.BlockID{0, 1})
	for _, err := range errs {
		if err == nil {
			t.Fatal("canceled read succeeded")
		}
	}
	// The pool must recover: a fresh context works (redialing if needed).
	vals, errs := r.ReadBlocks(context.Background(), []grid.BlockID{0})
	if errs[0] != nil || vals[0] == nil {
		t.Fatalf("pool poisoned after cancellation: %v", errs[0])
	}
}
