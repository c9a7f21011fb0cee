package blocksvc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"testing"

	"repro/internal/f32le"
	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/shard"
	"repro/internal/testutil"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 2, 3, 4, 5}
	if err := writeFrame(&buf, msgRead, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := readFrame(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgRead || !bytes.Equal(got, payload) {
		t.Errorf("frame round trip: type %d payload %v", typ, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, msgDone, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := readFrame(&buf, nil)
	if err != nil || typ != msgDone || len(got) != 0 {
		t.Errorf("empty frame: type %d payload %v err %v", typ, got, err)
	}
}

func TestFrameRejectsOversizedLength(t *testing.T) {
	// A corrupt length prefix must not trigger a giant allocation.
	buf := bytes.NewBuffer([]byte{0xff, 0xff, 0xff, 0xff, msgRead})
	if _, _, err := readFrame(buf, nil); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestDecShortBuffer(t *testing.T) {
	d := dec{b: []byte{1, 2}}
	_ = d.u32()
	if !d.bad {
		t.Error("short read not flagged")
	}
	if d.ok() {
		t.Error("short buffer reported ok")
	}
}

func TestDecTrailingGarbage(t *testing.T) {
	d := dec{b: []byte{1, 2, 3, 4, 5}}
	_ = d.u32()
	if d.ok() {
		t.Error("trailing garbage reported ok")
	}
}

// TestDecodeHelloStrict: this version's hello is magic and version and
// nothing else; another version's hello decodes whatever follows, so the
// server can refuse it by name.
func TestDecodeHelloStrict(t *testing.T) {
	var e enc
	e.u32(protoMagic)
	e.u16(ProtoVersion)
	if h, ok := decodeHello(e.b); !ok || h.Magic != protoMagic || h.Version != ProtoVersion {
		t.Fatalf("hello = %+v, ok=%v", h, ok)
	}
	if _, ok := decodeHello(e.b[:5]); ok {
		t.Error("hello cut inside the version decoded")
	}
	e.u32(3) // where a capability mask once rode
	if _, ok := decodeHello(e.b); ok {
		t.Error("hello with a trailing word decoded")
	}
	e.b[4]++ // another version: its shape is its own
	if h, ok := decodeHello(e.b); !ok || h.Version != ProtoVersion+1 {
		t.Errorf("other-version hello = %+v, ok=%v; it must decode to be refused by name", h, ok)
	}
}

// TestDecodeWelcomeStrict: every field through mapBytes is required, the
// map must lie wholly inside the payload, and nothing may trail it. A
// welcome cut short of maxRequests/mapBytes — the shape hand-built doubles
// used to emit — is malformed, not "one request in flight, no cluster"; the
// client then refuses the connection permanently rather than running
// unpipelined.
func TestDecodeWelcomeStrict(t *testing.T) {
	var fixed enc
	fixed.u16(ProtoVersion)
	fixed.u64(7)
	for _, v := range []uint32{16, 16, 16, 4, 4, 4, 1, 64, 2, 5000} {
		fixed.u32(v)
	}
	m := shard.Map{Epoch: 3, Seed: 11, VNodes: 8, Shards: []shard.Shard{
		{ID: "a", Addrs: []string{"127.0.0.1:7001"}}, {ID: "b", Addrs: []string{"127.0.0.1:7002"}}}}
	mapRaw := m.AppendBinary(nil)
	// welcome appends maxRequests 4, the declared mapBytes, and tail.
	welcome := func(mapBytes int, tail []byte) []byte {
		e := enc{b: append([]byte(nil), fixed.b...)}
		e.u32(4)
		e.u32(uint32(mapBytes))
		e.raw(tail)
		return e.b
	}
	flat := welcome(0, nil)
	for _, tc := range []struct {
		name    string
		payload []byte
		ok      bool
		shards  int
	}{
		{"flat", flat, true, 0},
		{"cluster", welcome(len(mapRaw), mapRaw), true, 2},
		{"without maxRequests", flat[:len(flat)-8], false, 0},
		{"without mapBytes", flat[:len(flat)-4], false, 0},
		{"mapBytes past the payload", welcome(len(mapRaw)+1, mapRaw), false, 0},
		{"map cut short", welcome(len(mapRaw)-1, mapRaw[:len(mapRaw)-1]), false, 0},
		{"trailing byte behind a flat welcome", welcome(0, []byte{0}), false, 0},
		{"trailing byte behind the map", welcome(len(mapRaw), append(mapRaw[:len(mapRaw):len(mapRaw)], 0)), false, 0},
	} {
		w, ok := decodeWelcome(tc.payload)
		if ok != tc.ok {
			t.Errorf("%s: ok=%v, want %v", tc.name, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if w.MaxRequests != 4 || w.HeartbeatMillis != 5000 || w.Session != 7 {
			t.Errorf("%s: welcome = %+v", tc.name, w)
		}
		shards := 0
		if w.ShardMap != nil {
			shards = len(w.ShardMap.Shards)
		}
		if shards != tc.shards {
			t.Errorf("%s: shard map = %+v, want %d shards", tc.name, w.ShardMap, tc.shards)
		}
	}

	lis := testutil.NewPipeListener()
	defer lis.Close()
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			readFrame(c, nil) // the hello
			writeFrame(c, msgWelcome, flat[:len(flat)-8])
			c.Close()
		}
	}()
	_, err := Dial(ClientConfig{Dial: lis.Dial, Retry: fastRetry(3)})
	if err == nil || faultio.Retryable(err) {
		t.Fatalf("Dial against a short welcome = %v, want a permanent refusal", err)
	}
}

// blocksFeed is a client with no transport: one registered tag on a
// connection whose read side is a byte slice. It runs rconn.readOne — what
// the read loop runs on every inbound frame — over frames built by hand, cut
// short or captured off a real server, and keeps the books on block buffers
// through the reader's own pool.
type blocksFeed struct {
	rc       *rconn
	p        *pendingReq
	stocked  int  // buffers put in the pool before the first frame is read
	large    bool // cap br's fills, as the handshake does for large blocks
	consumed int  // bytes of the stream the last read's parse took
}

// newBlocksFeed registers one tag for ids and stocks the pool with a buffer
// per id, each large enough for any block of g: no frame for the tag has
// more OK entries than that, so every buffer the parser takes comes out of
// the pool and can be counted back in.
func newBlocksFeed(tb testing.TB, g *grid.Grid, req uint64, ids []grid.BlockID) *blocksFeed {
	tb.Helper()
	r := &RemoteReader{g: g, m: newClientMetrics(nil)}
	bs := g.BlockSize()
	for range ids {
		if !r.bufs.Put(make([]float32, bs.Count())) {
			tb.Fatalf("the pool holds no buffer per id for %d ids", len(ids))
		}
	}
	p := &pendingReq{req: req, ids: ids, vals: make([][]float32, len(ids)),
		errs: make([]error, len(ids)), done: make(chan struct{})}
	rc := &rconn{r: r, pending: map[uint64]*pendingReq{req: p}}
	return &blocksFeed{rc: rc, p: p, stocked: len(ids)}
}

// read runs the stream — whole frames, header included — through readOne
// once, on a reader the handshake's constructor builds with a 16-byte buffer
// (payloads straddle br and src) and br's fills capped when f.large. It
// checks what must hold however the frame turned out: a frame that parsed was
// consumed exactly to its declared end, and every buffer that left the pool
// was either delivered or handed back.
func (f *blocksFeed) read(tb testing.TB, stream []byte) error {
	tb.Helper()
	src := bytes.NewReader(stream)
	f.rc.in = newFrameReader(src, 16)
	f.rc.in.large = f.large
	err := f.rc.readOne(nil)
	f.consumed = len(stream) - src.Len() - f.rc.in.br.Buffered()
	if err == nil {
		if declared := frameHeaderSize + int(binary.LittleEndian.Uint32(stream)); f.consumed != declared {
			tb.Fatalf("frame declares %d bytes, parsed cleanly consuming %d", declared, f.consumed)
		}
	}
	delivered := 0
	for _, v := range f.p.vals {
		if v != nil {
			delivered++
		}
	}
	var pooled [][]float32
	for {
		buf, reused := f.rc.r.bufs.Get(1)
		if !reused {
			break
		}
		pooled = append(pooled, buf)
	}
	if len(pooled)+delivered != f.stocked {
		tb.Fatalf("%d buffers stocked, %d delivered and %d back in the pool (err: %v)",
			f.stocked, delivered, len(pooled), err)
	}
	for _, buf := range pooled { // the count drained the pool: restock it
		f.rc.r.bufs.Put(buf)
	}
	return err
}

// readBoth parses stream for the seed tag on two fresh feeds, br's fills
// uncapped on one and capped on the other, holds the two parses to one
// outcome — the same buffers delivered bit for bit, the same entry errors and
// count answered, the same error-or-not, the same bytes consumed — and
// returns the uncapped one.
func readBoth(tb testing.TB, g *grid.Grid, stream []byte) (*blocksFeed, error) {
	tb.Helper()
	f := newBlocksFeed(tb, g, seedTag, seedIDs)
	err := f.read(tb, stream)
	c := newBlocksFeed(tb, g, seedTag, seedIDs)
	c.large = true
	cerr := c.read(tb, stream)
	if (err == nil) != (cerr == nil) || f.consumed != c.consumed || f.p.answered != c.p.answered {
		tb.Fatalf("uncapped fills: %d answered, %d bytes consumed, err %v; capped: %d, %d, %v",
			f.p.answered, f.consumed, err, c.p.answered, c.consumed, cerr)
	}
	for k, vals := range f.p.vals {
		if (vals == nil) != (c.p.vals[k] == nil) || !bytes.Equal(f32le.Append(nil, vals), f32le.Append(nil, c.p.vals[k])) ||
			fmt.Sprint(f.p.errs[k]) != fmt.Sprint(c.p.errs[k]) {
			tb.Fatalf("entry %d: uncapped fills delivered %v, %v; capped %v, %v",
				k, vals, f.p.errs[k], c.p.vals[k], c.p.errs[k])
		}
	}
	return f, err
}

// tinyGrid has eight blocks of two voxels: an 8-byte payload is a block.
func tinyGrid(tb testing.TB) *grid.Grid {
	tb.Helper()
	g, err := grid.New(grid.Dims{X: 4, Y: 2, Z: 2}, grid.Dims{X: 2, Y: 1, Z: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestBlocksEntryShapes: an OK entry is status, length, payload, crc —
// exactly — and a frame is its prelude and its entries, exactly. The fuzz
// corpus' blocks frames go through the client's streaming parser: the
// well-formed ones deliver what they carry, as they did before the parser
// streamed — the wire format has not moved; the first of them cut short at
// any byte, and every malformed one (one byte short, a byte between status
// and length where a codec byte once rode, an entry past the frame's end,
// bytes trailing the last entry, a tag nobody registered, a length the
// geometry refutes, more entries than ids, a frame over the limit), is an
// error that delivers nothing more and leaks no buffer.
func TestBlocksEntryShapes(t *testing.T) {
	g := tinyGrid(t)
	valid, invalid := seedBlocksFrames(t)
	read := func(stream []byte) (*blocksFeed, error) { return readBoth(t, g, stream) }
	raw := []byte{1, 2, 3, 4, 5, 6, 7, 8}

	whole := valid[0]
	f, err := read(whole)
	if err != nil {
		t.Fatalf("well-formed frame: %v", err)
	}
	for k, vals := range f.p.vals {
		if !bytes.Equal(f32le.Append(nil, vals), raw) || f.p.errs[k] != nil {
			t.Fatalf("entry %d delivered %v, %v; want the payload", k, vals, f.p.errs[k])
		}
	}
	if st := f.rc.r.Snapshot(); f.p.answered != 2 || st.BlocksServed != 2 || st.BytesReceived != 16 {
		t.Errorf("answered = %d, client stats = %+v; want 2 blocks of 8 bytes", f.p.answered, st)
	}
	var re *redirectError
	f, err = read(valid[1])
	if err != nil || !errors.As(f.p.errs[0], &re) || re.epoch != 4 || !bytes.Equal(f32le.Append(nil, f.p.vals[1]), raw) {
		t.Errorf("redirect then OK: err=%v errs=%v vals=%v", err, f.p.errs, f.p.vals)
	}
	f, err = read(valid[2])
	if err != nil || !bytes.Equal(f32le.Append(nil, f.p.vals[0]), raw) || !errors.As(f.p.errs[1], &re) || re.epoch != 4 {
		t.Errorf("OK then redirect: err=%v errs=%v vals=%v", err, f.p.errs, f.p.vals)
	}

	for cut := frameHeaderSize; cut < len(whole); cut++ {
		f, err := read(whole[:cut])
		if err == nil {
			t.Fatalf("stream cut at byte %d of %d parsed cleanly", cut, len(whole))
		}
		// Entry 0 ends 9+8 bytes behind the prelude: landed once whole.
		if landed := cut >= frameHeaderSize+runPreludeBytes+okEntryBytes+8; (f.p.vals[0] != nil) != landed {
			t.Errorf("cut at byte %d: first block delivered = %v, want %v", cut, f.p.vals[0] != nil, landed)
		}
	}
	for i, stream := range invalid {
		if _, err := read(stream); err == nil {
			t.Errorf("malformed seed %d parsed cleanly", i)
		}
	}
	// A payload that does not sum to its trailer is that block's fault alone.
	bad := bytes.Clone(whole)
	bad[frameHeaderSize+runPreludeBytes+5] ^= 0x10
	f, err = read(bad)
	if err != nil || f.p.vals[0] != nil || !errors.Is(f.p.errs[0], faultio.ErrChecksum) || f.p.vals[1] == nil {
		t.Errorf("flipped payload bit: err=%v vals=%v errs=%v; want a checksum fault for entry 0 only", err, f.p.vals, f.p.errs)
	}
}

// readTally passes reads through to r and records the size of each.
type readTally struct {
	r     io.Reader
	sizes []int
}

func (t *readTally) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 {
		t.sizes = append(t.sizes, n)
	}
	return n, err
}

func (t *readTally) total() (n int) {
	for _, s := range t.sizes {
		n += s
	}
	return n
}

// TestLargePayloadSkipsReadBuffer: on a geometry of 128 KiB blocks, the read
// buffer's fills stop where each payload starts, so they carry entry headers
// alone — at most 24 bytes an entry, across a frame boundary too — and every
// payload byte is read straight into its block buffer; on 2 KiB blocks one
// fill covers a frame of many entries; a topology frame behind a blocks frame
// is read with the fills uncapped; and the handshake tells the two
// geometries apart.
func TestLargePayloadSkipsReadBuffer(t *testing.T) {
	for _, tc := range []struct {
		o     svcOpts
		large bool
	}{{svcOpts{}, false}, {svcOpts{scale: 1.0 / 8, block: 32}, true}} {
		r := dialService(t, startService(t, tc.o), 1)
		g := r.topo.Load().groups[0]
		g.mu.Lock()
		for rc := range g.conns {
			if rc.in.large != tc.large {
				t.Errorf("blocks of %v: conn large = %v, want %v", r.g.BlockSize(), rc.in.large, tc.large)
			}
		}
		g.mu.Unlock()
	}

	// okFrame answers the indexes from first on, one OK entry per payload.
	okFrame := func(first int, payloads [][]byte) []byte {
		var e enc
		e.u64(seedTag)
		e.u32(uint32(first))
		e.u16(uint16(len(payloads)))
		for _, p := range payloads {
			e.u8(byte(statusOK))
			e.u32(uint32(len(p)))
			e.raw(p)
			e.u32(crc32.Checksum(p, castagnoli))
		}
		return frameBytes(t, msgBlocks, e.b)
	}
	// parse reads frames frames of stream for a tag asking every block of g in
	// order, through a reader built as the handshake builds it, and returns
	// br's fills and the bytes read around br. Every block answered must hold
	// its payload.
	parse := func(g *grid.Grid, stream []byte, frames int, payloads [][]byte) (fills *readTally, direct int) {
		t.Helper()
		ids := make([]grid.BlockID, g.NumBlocks())
		for i := range ids {
			ids[i] = grid.BlockID(i)
		}
		f := newBlocksFeed(t, g, seedTag, ids)
		f.rc.r.topo.Store(&topology{m: &shard.Map{Epoch: 1 << 62}}) // newer than any pushed
		// Every read of the stream passes all; a fill passes fills first.
		src := bytes.NewReader(stream)
		all := &readTally{r: src}
		f.rc.in = newFrameReader(all, 256<<10)
		fills = &readTally{r: f.rc.in.fill}
		f.rc.in.br = bufio.NewReaderSize(fills, 256<<10)
		f.rc.in.large = g.BlockSize().Count()*4 >= largePayloadBytes
		for i := 0; i < frames; i++ {
			if err := f.rc.readOne(nil); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
		}
		if src.Len() != 0 || f.rc.in.br.Buffered() != 0 {
			t.Fatalf("%d bytes of the stream unread", src.Len()+f.rc.in.br.Buffered())
		}
		for k, p := range payloads {
			if !bytes.Equal(f32le.Append(nil, f.p.vals[k]), p) || f.p.errs[k] != nil {
				t.Fatalf("block %d delivered with error %v or bytes unlike its payload", k, f.p.errs[k])
			}
		}
		return fills, all.total() - fills.total()
	}
	payloadsOf := func(g *grid.Grid) [][]byte {
		out := make([][]byte, g.NumBlocks())
		for k := range out {
			out[k] = make([]byte, 4*g.VoxelCount(grid.BlockID(k)))
			for i := range out[k] {
				out[k][i] = byte(i*7 + k)
			}
		}
		return out
	}

	big, err := grid.New(grid.Dims{X: 96, Y: 32, Z: 32}, grid.Dims{X: 32, Y: 32, Z: 32})
	if err != nil {
		t.Fatal(err)
	}
	bigPays := payloadsOf(big)
	payBytes := 3 * len(bigPays[0])
	stream := append(okFrame(0, bigPays[:2]), okFrame(2, bigPays[2:])...)
	fills, direct := parse(big, stream, 2, bigPays)
	if fills.total() != len(stream)-payBytes || direct != payBytes {
		t.Errorf("128 KiB entries: fills carried %d bytes and direct reads %d; want the %d header bytes and the %d payload bytes",
			fills.total(), direct, len(stream)-payBytes, payBytes)
	}
	for _, n := range fills.sizes {
		if n > frameHeaderSize+runPreludeBytes+okEntryBytes-4 {
			t.Errorf("128 KiB entries: a fill of %d bytes (fills %v)", n, fills.sizes)
		}
	}

	small, err := grid.New(grid.Dims{X: 32, Y: 32, Z: 16}, grid.Dims{X: 8, Y: 8, Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	smallPays := payloadsOf(small)
	stream = okFrame(0, smallPays)
	if fills, direct := parse(small, stream, 1, smallPays); len(fills.sizes) != 1 || direct != 0 {
		t.Errorf("%d 2 KiB entries: fills %v and %d bytes read directly; want one fill of the frame",
			len(smallPays), fills.sizes, direct)
	}

	m := shard.Map{Epoch: 5, VNodes: 8}
	for i := 0; i < 100; i++ {
		m.Shards = append(m.Shards, shard.Shard{ID: fmt.Sprintf("shard-%03d", i), Addrs: []string{fmt.Sprintf("10.0.0.%d:7001", i)}})
	}
	topo := frameBytes(t, msgTopology, m.AppendBinary(nil))
	stream = append(okFrame(0, bigPays), topo...)
	fills, _ = parse(big, stream, 2, bigPays)
	// The last sum's fill took the topology frame's header; its payload, a
	// few KiB, comes in one fill.
	if last := fills.sizes[len(fills.sizes)-1]; len(topo) < 2<<10 || last != len(topo)-frameHeaderSize {
		t.Errorf("a %d-byte topology frame behind a blocks frame: fills %v; want its payload in one", len(topo), fills.sizes)
	}
}

// TestStatusRoundTrip pins the wire mapping satellite: every fault class
// classified server-side decodes client-side into an error with identical
// errors.Is and Retryable behavior.
func TestStatusRoundTrip(t *testing.T) {
	cases := []struct {
		name      string
		serverErr error
		status    blockStatus
		retryable bool
		is        []error
	}{
		{
			name:      "transient",
			serverErr: fmt.Errorf("boom: %w", faultio.ErrTransient),
			status:    statusTransient,
			retryable: true,
			is:        []error{faultio.ErrTransient},
		},
		{
			name:      "permanent",
			serverErr: fmt.Errorf("gone: %w", faultio.ErrPermanent),
			status:    statusPermanent,
			retryable: false,
			is:        []error{faultio.ErrPermanent},
		},
		{
			name:      "checksum permanent (disk rot)",
			serverErr: fmt.Errorf("crc: %w", faultio.Permanent(faultio.ErrChecksum)),
			status:    statusChecksum,
			retryable: false,
			is:        []error{faultio.ErrChecksum, faultio.ErrPermanent},
		},
		{
			name:      "checksum transient (in transit)",
			serverErr: fmt.Errorf("crc: %w", faultio.Transient(faultio.ErrChecksum)),
			status:    statusChecksumRetry,
			retryable: true,
			is:        []error{faultio.ErrChecksum, faultio.ErrTransient},
		},
		{
			name:      "shed",
			serverErr: fmt.Errorf("busy: %w", faultio.Transient(ErrShed)),
			status:    statusShed,
			retryable: true,
			is:        []error{ErrShed},
		},
		{
			name:      "canceled",
			serverErr: context.Canceled,
			status:    statusCanceled,
			retryable: true,
			is:        nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := statusOf(tc.serverErr)
			if st != tc.status {
				t.Fatalf("statusOf = %d, want %d", st, tc.status)
			}
			err := blockErr(st, grid.BlockID(7))
			if got := faultio.Retryable(err); got != tc.retryable {
				t.Errorf("Retryable = %v, want %v (err %v)", got, tc.retryable, err)
			}
			for _, sentinel := range tc.is {
				if !errors.Is(err, sentinel) {
					t.Errorf("errors.Is(%v, %v) = false", err, sentinel)
				}
			}
		})
	}
}

func TestStatusOKIsNil(t *testing.T) {
	if statusOf(nil) != statusOK {
		t.Error("nil error not OK")
	}
	if blockErr(statusOK, 0) != nil {
		t.Error("OK status produced an error")
	}
}
