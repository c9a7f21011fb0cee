package blocksvc

import (
	"math"

	"repro/internal/grid"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/vec"
)

// This file holds the payload decoders for every client→server and
// handshake message, factored out of the session/connection loops so the
// fuzz target (FuzzWireDecode) exercises exactly the code the server and
// client run against untrusted input. Each decoder returns ok=false on a
// short, oversized, or trailing-garbage payload and never panics or
// allocates proportionally to an unvalidated declared count.

// helloMsg is the decoded client hello.
type helloMsg struct {
	Magic   uint32
	Version uint16
}

// decodeHello decodes a hello. A hello announcing another protocol version
// has that version's shape, not this one's, so only magic and version are
// read from it — enough for the server to refuse it by name instead of as
// garbage.
func decodeHello(payload []byte) (helloMsg, bool) {
	d := dec{b: payload}
	m := helloMsg{Magic: d.u32(), Version: d.u16()}
	// This version's hello ends there: anything trailing is malformed.
	if d.bad || (m.Version == ProtoVersion && !d.ok()) {
		return helloMsg{}, false
	}
	return m, true
}

// welcomeMsg is the decoded server welcome.
type welcomeMsg struct {
	Version         uint16
	Session         uint64
	Header          store.Header
	HeartbeatMillis uint32     // server's liveness cadence; 0 = disabled
	MaxRequests     uint32     // pipelined requests the server allows per conn
	ShardMap        *shard.Map // cluster topology; nil from a flat server
}

// decodeWelcome decodes a welcome strictly: every field through mapBytes is
// required, so a welcome cut short of its request window is malformed
// rather than "one request in flight, no cluster".
func decodeWelcome(payload []byte) (welcomeMsg, bool) {
	d := dec{b: payload}
	m := welcomeMsg{Version: d.u16(), Session: d.u64()}
	m.Header = store.Header{
		Res:      grid.Dims{X: int(d.u32()), Y: int(d.u32()), Z: int(d.u32())},
		Block:    grid.Dims{X: int(d.u32()), Y: int(d.u32()), Z: int(d.u32())},
		Variable: int32(d.u32()),
		Blocks:   int32(d.u32()),
		Version:  int32(d.u32()),
	}
	m.HeartbeatMillis = d.u32()
	m.MaxRequests = d.u32()
	// A cluster node appends its topology, length-prefixed; a flat server
	// declares 0 bytes. The declared length is validated against the
	// remaining payload before the map decoder sees it; the map decoder
	// then validates its own counts before allocating.
	if mapBytes := int(d.u32()); mapBytes > 0 {
		raw := d.take(mapBytes)
		if raw == nil {
			return welcomeMsg{}, false
		}
		sm, err := shard.DecodeBinary(raw)
		if err != nil {
			return welcomeMsg{}, false
		}
		m.ShardMap = sm
	}
	if !d.ok() {
		return welcomeMsg{}, false
	}
	return m, true
}

// decodeTopology decodes a topology push frame: one shard.Map, the whole
// payload. The map decoder rejects hostile counts before allocation.
func decodeTopology(payload []byte) (*shard.Map, bool) {
	m, err := shard.DecodeBinary(payload)
	if err != nil {
		return nil, false
	}
	return m, true
}

// decodeToken decodes a ping or pong payload: the probe token.
func decodeToken(payload []byte) (uint64, bool) {
	d := dec{b: payload}
	token := d.u64()
	if !d.ok() {
		return 0, false
	}
	return token, true
}

// decodeGoaway decodes a goaway payload: how long the server will keep
// serving in-flight work before closing (0 = unspecified).
func decodeGoaway(payload []byte) (uint32, bool) {
	d := dec{b: payload}
	millis := d.u32()
	if !d.ok() {
		return 0, false
	}
	return millis, true
}

// readMsg is the decoded read request.
type readMsg struct {
	Req            uint64
	DeadlineMillis uint32
	IDs            []grid.BlockID
}

// decodeRead validates the declared id count against both maxBlocks and the
// remaining payload length BEFORE sizing the id slice, so a hostile count in
// a tiny payload costs nothing. The ids are decoded into ids' array when it
// is large enough.
func decodeRead(payload []byte, maxBlocks int, ids []grid.BlockID) (readMsg, bool) {
	d := dec{b: payload}
	m := readMsg{Req: d.u64(), DeadlineMillis: d.u32()}
	n := int(d.u32())
	if d.bad || n < 0 || n > maxBlocks || n*4 != len(d.b) {
		return readMsg{}, false
	}
	if cap(ids) < n {
		ids = make([]grid.BlockID, n)
	}
	m.IDs = ids[:n]
	for i := range m.IDs {
		m.IDs[i] = grid.BlockID(d.u32())
	}
	if !d.ok() {
		return readMsg{}, false
	}
	return m, true
}

// decodeView decodes a camera-position view update.
func decodeView(payload []byte) (vec.V3, bool) {
	d := dec{b: payload}
	pos := vec.V3{
		X: math.Float64frombits(d.u64()),
		Y: math.Float64frombits(d.u64()),
		Z: math.Float64frombits(d.u64()),
	}
	if !d.ok() {
		return vec.V3{}, false
	}
	return pos, true
}
