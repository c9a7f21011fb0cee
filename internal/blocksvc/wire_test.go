package blocksvc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/f32le"
	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/shard"
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

	lis := NewPipeListener()
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
	rc      *rconn
	p       *pendingReq
	stocked int // buffers put in the pool before the first frame is read
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
// once and checks what must hold however the frame turned out: a frame that
// parsed was consumed exactly to its declared end, and every buffer that
// left the pool was either delivered or handed back.
func (f *blocksFeed) read(tb testing.TB, stream []byte) error {
	tb.Helper()
	src := bytes.NewReader(stream)
	br := bufio.NewReaderSize(src, 16) // small: payloads straddle br and src
	f.rc.in = frameReader{br: br, src: src}
	err := f.rc.readOne(nil)
	if err == nil {
		declared := frameHeaderSize + int(binary.LittleEndian.Uint32(stream))
		if consumed := len(stream) - src.Len() - br.Buffered(); consumed != declared {
			tb.Fatalf("frame declares %d bytes, parsed cleanly consuming %d", declared, consumed)
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
	read := func(stream []byte) (*blocksFeed, error) {
		f := newBlocksFeed(t, g, seedTag, seedIDs)
		return f, f.read(t, stream)
	}
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
