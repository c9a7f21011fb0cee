package blocksvc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

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

// TestBlocksEntryShapes: an OK entry is status, length, payload, crc —
// exactly. The same frame one byte short, or with one byte between status
// and length (where a codec byte once rode), must not parse cleanly.
func TestBlocksEntryShapes(t *testing.T) {
	raw := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	frame := func(extra bool) []byte {
		var e enc
		e.u64(9)
		e.u32(0)
		e.u16(1)
		e.u8(byte(statusOK))
		if extra {
			e.u8(0)
		}
		e.u32(uint32(len(raw)))
		e.raw(raw)
		e.u32(crc32.Checksum(raw, castagnoli))
		return e.b
	}
	clean := func(payload []byte) bool {
		it, ok := blocksHeader(payload)
		if !ok {
			return false
		}
		for it.next() {
		}
		return it.done()
	}
	good := frame(false)
	it, _ := blocksHeader(good)
	if !it.next() || it.Status != statusOK || !bytes.Equal(it.Wire, raw) ||
		it.Sum != crc32.Checksum(raw, castagnoli) || !clean(good) {
		t.Fatalf("well-formed entry did not parse: %+v", it)
	}
	if clean(good[:len(good)-1]) {
		t.Error("entry one byte short parsed cleanly")
	}
	if clean(append(good[:len(good):len(good)], 0)) {
		t.Error("frame with a trailing byte parsed cleanly")
	}
	if clean(frame(true)) {
		t.Error("entry with a byte between status and length parsed cleanly")
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
