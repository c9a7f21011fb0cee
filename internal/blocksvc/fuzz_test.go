package blocksvc

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"testing"

	"repro/internal/grid"
	"repro/internal/shard"
)

// frameBytes encodes one complete wire frame for use as a fuzz seed.
func frameBytes(t testing.TB, typ byte, payload []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := writeFrameTo(&b, typ, payload); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// seedFrames builds one valid frame of every client→server and handshake
// message, so the fuzzer starts from the interesting corners of the format
// instead of rediscovering the header layout.
func seedFrames(t testing.TB) [][]byte {
	// A hello of another version: magic and version only. Decodes, so the
	// server can refuse it by name.
	var helloOther enc
	helloOther.u32(protoMagic)
	helloOther.u16(ProtoVersion - 1)

	var hello enc
	hello.u32(protoMagic)
	hello.u16(ProtoVersion)

	// This version's hello with a word behind it — where a capability mask
	// once rode. Trailing bytes are malformed.
	var helloTrailing enc
	helloTrailing.raw(hello.b)
	helloTrailing.u32(3)

	// A welcome cut short of maxRequests/mapBytes: malformed under the
	// strict decoder, not "one request in flight, no cluster".
	var welcomeShort enc
	welcomeShort.u16(ProtoVersion)
	welcomeShort.u64(7)
	for _, v := range []uint32{16, 16, 16, 4, 4, 4, 1, 64, 3, 5000} {
		welcomeShort.u32(v)
	}

	// A flat server's welcome: pipelining allowance, then mapBytes 0.
	var welcome enc
	welcome.raw(welcomeShort.b)
	welcome.u32(4)
	welcome.u32(0)

	// A cluster node's welcome: the topology map rides length-prefixed
	// behind the pipelining allowance.
	seedMap := shard.Map{
		Epoch:  3,
		Seed:   11,
		VNodes: 8,
		Shards: []shard.Shard{
			{ID: "a", Addrs: []string{"127.0.0.1:7001"}},
			{ID: "b", Addrs: []string{"127.0.0.1:7002", "127.0.0.1:7003"}},
		},
	}
	mapRaw := seedMap.AppendBinary(nil)
	var welcomeShard enc
	welcomeShard.raw(welcomeShort.b)
	welcomeShard.u32(4)
	welcomeShard.u32(uint32(len(mapRaw)))
	welcomeShard.raw(mapRaw)

	// Topology push: the map alone is the whole payload.
	topo := mapRaw

	// Hostile topology: a node-list header declaring 4G shards over a
	// near-empty payload. Must be rejected before any allocation.
	var topoHostile enc
	topoHostile.u64(9)          // epoch
	topoHostile.u64(1)          // seed
	topoHostile.u32(8)          // vnodes
	topoHostile.u32(0xFFFFFFFF) // declares 4G shards, provides none

	var ping enc
	ping.u64(99)

	var goaway enc
	goaway.u32(1500)

	var read enc
	read.u64(1)
	read.u32(250)
	read.u32(3)
	for _, id := range []uint32{0, 5, 6} {
		read.u32(id)
	}

	var view enc
	view.u64(math.Float64bits(1.5))
	view.u64(math.Float64bits(-2.5))
	view.u64(math.Float64bits(8))

	valid, invalid := seedBlocksFrames(t)
	return append(append(valid, invalid...),
		frameBytes(t, msgHello, helloOther.b),
		frameBytes(t, msgHello, hello.b),
		frameBytes(t, msgHello, helloTrailing.b),
		frameBytes(t, msgWelcome, welcomeShort.b),
		frameBytes(t, msgWelcome, welcome.b),
		frameBytes(t, msgWelcome, welcomeShard.b),
		frameBytes(t, msgTopology, topo),
		frameBytes(t, msgTopology, topoHostile.b),
		frameBytes(t, msgRead, read.b),
		frameBytes(t, msgView, view.b),
		frameBytes(t, msgPing, ping.b),
		frameBytes(t, msgPong, ping.b),
		frameBytes(t, msgGoaway, goaway.b),
		frameBytes(t, msgRead, nil),             // short payload
		[]byte{0xff, 0xff, 0xff, 0xff, msgRead}, // oversized length prefix
	)
}

// seedTag and seedIDs are the one tag the fuzz target's client has in flight
// — two blocks of tinyGrid, 8 payload bytes each — which the blocks seeds
// answer.
const seedTag = 9

var seedIDs = []grid.BlockID{5, 2}

// seedBlocksFrames builds the blocks-frame seeds as streams, frame header
// included: those the client's parser must take whole — two OK entries
// first, then a redirect ahead of an OK entry, then one behind it — and those
// it must refuse (TestBlocksEntryShapes holds it to both).
func seedBlocksFrames(t testing.TB) (valid, invalid [][]byte) {
	raw := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	ok := func(e *enc) {
		e.u8(byte(statusOK))
		e.u32(uint32(len(raw)))
		e.raw(raw)
		e.u32(crc32.Checksum(raw, castagnoli))
	}
	prelude := func(req uint64, n uint16) *enc {
		var e enc
		e.u64(req)
		e.u32(0)
		e.u16(n)
		return &e
	}
	// Two OK entries, checksummed like the server writes them.
	blocks := prelude(seedTag, 2)
	ok(blocks)
	ok(blocks)

	// A redirect entry — status byte + u64 epoch, no payload: the 9-byte "ask
	// the new owner" answer from a cluster node — ahead of an OK one.
	redir := prelude(seedTag, 2)
	redir.u8(byte(statusRedirect))
	redir.u64(4) // current epoch at the answering shard
	ok(redir)

	// An OK entry, then a redirect: with br's fills capped, the fill behind
	// the payload stops inside the redirect's epoch.
	okRedir := prelude(seedTag, 2)
	ok(okRedir)
	okRedir.u8(byte(statusRedirect))
	okRedir.u64(4)

	// One byte long: an entry with a byte between status and length, where a
	// codec byte once rode, which shifts the length into nonsense.
	long := prelude(seedTag, 1)
	long.u8(byte(statusOK))
	long.u8(0)
	long.u32(uint32(len(raw)))
	long.raw(raw)
	long.u32(crc32.Checksum(raw, castagnoli))

	// An entry whose declared length is the block's but runs past what the
	// frame has left: the frame ends six bytes into the second payload.
	past := blocks.b[:runPreludeBytes+okEntryBytes+len(raw)+5+6]

	// Bytes behind the last entry, inside the frame.
	trailing := append(blocks.b[:len(blocks.b):len(blocks.b)], 0xee, 0xee)

	// A well-formed frame for a tag nobody has in flight.
	stray := prelude(seedTag+1, 2)
	ok(stray)
	ok(stray)

	// A payload checksummed and framed as written, but not the block's size.
	fat := prelude(seedTag, 1)
	fat.u8(byte(statusOK))
	fat.u32(12)
	fat.raw(append(raw, 9, 9, 9, 9))
	fat.u32(crc32.Checksum(append(raw, 9, 9, 9, 9), castagnoli))

	// One entry more than the tag has ids.
	crowd := prelude(seedTag, uint16(len(seedIDs)+1))
	ok(crowd)
	ok(crowd)
	ok(crowd)

	whole := frameBytes(t, msgBlocks, blocks.b)
	valid = [][]byte{whole, frameBytes(t, msgBlocks, redir.b), frameBytes(t, msgBlocks, okRedir.b)}
	invalid = [][]byte{
		frameBytes(t, msgBlocks, blocks.b[:len(blocks.b)-1]), // one byte short: the last CRC cut
		frameBytes(t, msgBlocks, long.b),
		frameBytes(t, msgBlocks, past),
		whole[:len(whole)-4-3], // the stream ends mid-payload, the frame's declared length does not
		frameBytes(t, msgBlocks, trailing),
		frameBytes(t, msgBlocks, stray.b),
		frameBytes(t, msgBlocks, fat.b),
		frameBytes(t, msgBlocks, crowd.b),
		{0x01, 0x00, 0x00, 0x04, msgBlocks}, // one byte over the frame limit
	}
	return valid, invalid
}

// FuzzWireDecode drives the exact code the server and client run against
// untrusted bytes: frame extraction (length-prefix handling) followed by the
// typed payload decoders, and for a blocks frame the client's streaming
// parser over the raw stream — it never sees a frame whole. Any panic, hang,
// or count-driven over-allocation is a finding; decoded results must also
// satisfy the decoders' contracts.
func FuzzWireDecode(f *testing.F) {
	for _, seed := range seedFrames(f) {
		f.Add(seed)
	}
	g := tinyGrid(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= frameHeaderSize && data[4] == msgBlocks {
			// blocksFeed.read holds the parser to its contract: a clean parse
			// consumed exactly the declared length, and every block buffer
			// taken was delivered or handed back — so none was taken for a
			// length the geometry or the frame budget refutes. readBoth holds
			// the parse with br's fills capped to the one without.
			feed, err := readBoth(t, g, data)
			for k, vals := range feed.p.vals {
				if vals != nil && int64(len(vals)) != g.VoxelCount(seedIDs[k]) {
					t.Fatalf("block %d delivered with %d voxels", seedIDs[k], len(vals))
				}
			}
			if err == nil && feed.p.answered > len(data)-frameHeaderSize-runPreludeBytes {
				t.Fatalf("%d entries parsed cleanly from %d bytes", feed.p.answered, len(data))
			}
			return
		}
		typ, payload, err := readFrame(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		if len(payload) > maxFrameBytes {
			t.Fatalf("readFrame returned %d bytes, over the frame limit", len(payload))
		}
		const maxBlocks = 65536
		switch typ {
		case msgHello:
			decodeHello(payload)
		case msgWelcome:
			decodeWelcome(payload)
		case msgRead:
			if msg, ok := decodeRead(payload, maxBlocks, nil); ok {
				if len(msg.IDs) > maxBlocks {
					t.Fatalf("decodeRead accepted %d ids, cap %d", len(msg.IDs), maxBlocks)
				}
				// req(8) + deadline(4) + count(4) + 4 bytes per id — exact fit.
				if 16+4*len(msg.IDs) != len(payload) {
					t.Fatalf("decodeRead accepted %d ids from %d payload bytes",
						len(msg.IDs), len(payload))
				}
			}
		case msgTopology:
			if m, ok := decodeTopology(payload); ok {
				// A map that decoded must validate — the client adopts it
				// and builds a ring without re-checking bounds.
				if err := m.Validate(); err != nil {
					t.Fatalf("decodeTopology accepted an invalid map: %v", err)
				}
			}
		case msgView:
			decodeView(payload)
		case msgPing, msgPong:
			decodeToken(payload)
		case msgGoaway:
			decodeGoaway(payload)
		}
	})
}

// TestReadFrameTruncatedAllocation pins the over-allocation fix: a header
// declaring the maximum frame length with almost no payload behind it must
// not commit the declared 64 MiB — memory committed tracks bytes received.
func TestReadFrameTruncatedAllocation(t *testing.T) {
	data := make([]byte, frameHeaderSize+16)
	binary.LittleEndian.PutUint32(data, maxFrameBytes)
	data[4] = msgRead
	const rounds = 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if _, _, err := readFrame(bytes.NewReader(data), nil); err == nil {
			t.Fatal("truncated frame decoded successfully")
		}
	}
	runtime.ReadMemStats(&after)
	// Each attempt may allocate one readChunk; the old code allocated the
	// full 64 MiB per attempt (8 rounds = 512 MiB).
	if delta := after.TotalAlloc - before.TotalAlloc; delta > rounds*(readChunk+1<<16) {
		t.Errorf("truncated reads allocated %d bytes total, want at most ~%d",
			delta, rounds*readChunk)
	}
}

// TestReadFrameLargePayloadRoundTrip: the chunked path must still hand back
// exactly the bytes written, including across chunk boundaries.
func TestReadFrameLargePayloadRoundTrip(t *testing.T) {
	payload := make([]byte, readChunk*3+12345)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	var b bytes.Buffer
	if err := writeFrameTo(&b, msgBlocks, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := readFrame(&b, nil)
	if err != nil || typ != msgBlocks {
		t.Fatalf("readFrame: typ=%d err=%v", typ, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("chunked payload does not round-trip")
	}
}

// TestReadFrameMidPayloadEOF: EOF after a whole first chunk is mid-frame
// and must surface as ErrUnexpectedEOF, as the single-read path does.
func TestReadFrameMidPayloadEOF(t *testing.T) {
	full := frameBytes(t, msgBlocks, make([]byte, readChunk*2))
	_, _, err := readFrame(bytes.NewReader(full[:frameHeaderSize+readChunk]), nil)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestDecodeReadHostileCount: a declared id count far beyond the payload
// must be rejected before any allocation happens.
func TestDecodeReadHostileCount(t *testing.T) {
	var e enc
	e.u64(1)
	e.u32(0)
	e.u32(0xFFFFFFFF) // declares 4G ids, provides none
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := decodeRead(e.b, 1<<30, nil); ok {
			t.Fatal("hostile count decoded")
		}
	}); n > 0 {
		t.Errorf("rejecting a hostile count allocates %.1f times", n)
	}
}
