// Package blocksvc is the networked face of the block store: a versioned,
// length-prefixed binary wire protocol, a multi-session server that fronts
// one shared store.MemCache (cross-session singleflight, per-session
// view-driven prefetch, admission control with load shedding), and a
// RemoteReader client implementing store.BlockReader so ooc.Runtime drives
// a remote store unmodified.
//
// # Wire format
//
// Every message is one frame: a 4-byte little-endian payload length, a
// 1-byte message type, then the payload. A connection opens with
// hello/welcome (magic + protocol version; the welcome carries the served
// volume's geometry, a server-assigned session id and, from a cluster node,
// the topology), after which the client sends read requests and view updates:
//
//	hello   c→s  magic u32, version u16
//	welcome s→c  version u16, session u64, res 3×u32, block 3×u32,
//	             variable u32, blocks u32, storeVersion u32,
//	             heartbeatMillis u32 (0 = liveness disabled),
//	             maxRequests u32, mapBytes u32 (0 from a flat server)
//	             [, shard.Map of mapBytes bytes]
//	read    c→s  req u64, deadlineMillis u32, n u32, n×u32 block ids
//	view    c→s  camera position 3×f64 (no response; drives server prefetch)
//	blocks  s→c  req u64, firstIdx u32, n u16, then per block:
//	             status u8 [+ nbytes u32, payload, crc32c u32  when OK]
//	                       [+ epoch u64                        when redirect]
//	done    s→c  req u64 (every requested index has been answered)
//	shed    s→c  req u64 (request refused by admission control; retryable)
//	error   s→c  message string (fatal protocol error; connection closes)
//	ping    s→c  token u64 (liveness probe at the advertised interval)
//	pong    c→s  token u64 (echo of a received ping's token)
//	goaway  s→c  drainMillis u32 (server is draining: finish what is on the
//	             wire, then take new work elsewhere)
//	topology s→c shard.Map binary encoding (cluster nodes only): an
//	             epoch-bumped cluster topology; clients adopt strictly
//	             higher epochs and re-route pending work
//
// There is one framing and nothing to negotiate. Both sides speak exactly
// ProtoVersion: the server refuses any other hello with an error frame
// naming the version it speaks, and the client refuses any other welcome.
// The version is the protocol's one extension point: a released peer that
// needs another layout announces another ProtoVersion.
//
// Responses stream: the server answers a read with a sequence of blocks
// frames — one per merged run of consecutive results — and a final done.
// Block payloads are little-endian float32 voxels guarded by a CRC32C so
// in-transit corruption is detected at the client and classified as a
// retryable checksum fault. An OK payload whose length disagrees with the
// block's geometry is a protocol violation: the client tears the connection
// down before allocating anything for it.
//
// # Pipelining
//
// The req field tags responses back to their request: a client may keep
// several tagged read requests in flight on one connection (up to the
// welcome's maxRequests) and the server's responses interleave at frame
// granularity, demuxed client-side by req.
//
// # Liveness and lifecycle
//
// The welcome advertises the server's heartbeat interval. One side probes
// and the other answers: the server pings every session at that cadence,
// busy or idle, and the client pongs each ping. Both sides arm a read
// deadline of twice the interval, which any inbound frame renews — the
// client's by the pings, the server's by the pongs — so a dead or wedged
// peer, one that stops producing any frames, is detected within 2×interval
// and its session torn down instead of leaking. A ping from a client is a
// protocol error, as is a pong from a server.
//
// GOAWAY is the server's drain announcement: requests already on the wire
// are served, after which the connection will close; a failover-aware
// client shifts new work to a replica.
//
// # Sharded clusters
//
// A shard.Map turns a set of servers into a consistent-hash cluster.
// A cluster-mode server appends its map (length-prefixed) to every
// welcome; the client routes each block to its ring owner from then on.
// Topology changes travel as topology frames carrying the full
// epoch-bumped map. A block requested from a node that does not own it is
// answered with statusRedirect plus the node's epoch — never served — so
// cross-node cache duplication cannot happen silently. Non-cluster servers
// send no map (mapBytes 0), and the client stays flat: one shard, N
// replicas.
//
// # Fault classes over the wire
//
// Per-block status bytes carry the faultio classification across the
// network, so the client can rebuild an error that answers errors.Is
// exactly like the server-side original: transient faults stay retryable,
// permanent and on-disk checksum faults stay permanent, and a shed request
// maps to ErrShed wrapped as transient (retry later is the intended
// response).
package blocksvc

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/faultio"
	"repro/internal/grid"
)

// Protocol identity. ProtoVersion is the only version either side speaks:
// the server refuses any other hello with msgError, the client any other
// welcome. No version was ever released — nothing outside this tree speaks
// the protocol — so the layouts above have been cut down under the same
// number rather than kept readable for peers that do not exist.
const (
	protoMagic   uint32 = 0x62737663 // "bsvc"
	ProtoVersion uint16 = 4
)

// Message types.
const (
	msgHello   byte = 1
	msgWelcome byte = 2
	msgRead    byte = 3
	msgView    byte = 4
	msgBlocks  byte = 5
	msgDone    byte = 6
	msgShed    byte = 7
	msgError   byte = 8
	msgPing    byte = 9
	msgPong    byte = 10
	msgGoaway  byte = 11
	// msgTopology (s→c, cluster nodes only) pushes an epoch-bumped
	// shard map: payload is one shard.Map in its binary encoding. Clients
	// adopt strictly higher epochs and re-route pending work.
	msgTopology byte = 12
)

// maxFrameBytes bounds any single frame so a corrupt length prefix cannot
// make either side allocate unboundedly.
const maxFrameBytes = 64 << 20

// frameHeaderSize is the fixed prefix of every frame: length + type.
const frameHeaderSize = 5

// ErrShed marks a request refused by the server's admission control. It is
// always delivered wrapped as a transient fault: the server is alive but
// over capacity, and retrying after backoff is exactly what the client's
// existing retry policy does.
var ErrShed = errors.New("blocksvc: shed by server admission control")

// blockStatus is the per-block result class carried over the wire.
type blockStatus uint8

const (
	statusOK            blockStatus = 0
	statusTransient     blockStatus = 1 // retryable server-side fault
	statusPermanent     blockStatus = 2 // not retryable (bad id, media loss)
	statusChecksum      blockStatus = 3 // on-disk rot at the server: permanent
	statusChecksumRetry blockStatus = 4 // corruption in transit to the server: transient
	statusShed          blockStatus = 5 // admission control refused the work
	statusCanceled      blockStatus = 6 // request context ended server-side
	// statusRedirect answers a block this node does not own under its
	// current shard map. The entry carries the node's topology epoch (u64)
	// so a stale client knows to refresh before re-routing.
	statusRedirect blockStatus = 7
)

// statusOf classifies a server-side read error for the wire.
func statusOf(err error) blockStatus {
	switch {
	case err == nil:
		return statusOK
	case errors.Is(err, faultio.ErrChecksum):
		if faultio.Retryable(err) {
			return statusChecksumRetry
		}
		return statusChecksum
	case errors.Is(err, ErrShed):
		return statusShed
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return statusCanceled
	case faultio.Retryable(err):
		return statusTransient
	default:
		return statusPermanent
	}
}

// redirectError is the client-side form of statusRedirect: the addressed
// node does not own the block under its topology (whose epoch rides
// along). The router consumes these internally and re-routes; one that
// escapes to a caller (nodes still disagreed after maxRoutePasses) is a
// transient fault — retrying after the topology converges is correct.
type redirectError struct {
	id    grid.BlockID
	epoch uint64
}

func (e *redirectError) Error() string {
	return fmt.Sprintf("blocksvc: block %d not owned by addressed shard (epoch %d): %s",
		e.id, e.epoch, faultio.ErrTransient)
}

func (e *redirectError) Unwrap() error { return faultio.ErrTransient }

// blockErr rebuilds a client-side error for a non-OK status, preserving the
// faultio classification so retry policies behave identically against a
// remote store and a local one.
func blockErr(st blockStatus, id grid.BlockID) error {
	switch st {
	case statusOK:
		return nil
	case statusTransient:
		return fmt.Errorf("blocksvc: block %d failed at server: %w", id, faultio.ErrTransient)
	case statusPermanent:
		return fmt.Errorf("blocksvc: block %d lost at server: %w", id, faultio.ErrPermanent)
	case statusChecksum:
		return fmt.Errorf("blocksvc: block %d rotten at server: %w",
			id, faultio.Permanent(faultio.ErrChecksum))
	case statusChecksumRetry:
		return fmt.Errorf("blocksvc: block %d corrupted in server transit: %w",
			id, faultio.Transient(faultio.ErrChecksum))
	case statusShed:
		return fmt.Errorf("blocksvc: block %d: %w", id, faultio.Transient(ErrShed))
	case statusCanceled:
		return fmt.Errorf("blocksvc: block %d canceled at server: %w", id, faultio.ErrTransient)
	case statusRedirect:
		return &redirectError{id: id}
	default:
		return fmt.Errorf("blocksvc: block %d: unknown status %d: %w", id, st, faultio.ErrPermanent)
	}
}

// writeFrame emits one frame into w; the caller flushes it. The header is
// appended to w's own free space (AvailableBuffer), so no header array
// escapes into the Write.
func writeFrame(w *bufio.Writer, typ byte, payload []byte) error {
	if len(payload) > maxFrameBytes {
		return fmt.Errorf("blocksvc: frame of %d bytes exceeds limit", len(payload))
	}
	hdr := binary.LittleEndian.AppendUint32(w.AvailableBuffer(), uint32(len(payload)))
	if _, err := w.Write(append(hdr, typ)); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readChunk is the largest buffer readPayload commits to before any payload
// bytes have actually arrived.
const readChunk = 1 << 20

// readPayload reads exactly n declared bytes. Payloads up to readChunk get
// one exact allocation — the hot path, since real frames are bounded by
// responseRunBytes-sized runs. Larger declared lengths are read in chunks
// with the buffer growing only as data arrives, so a corrupt or hostile
// length prefix costs at most one chunk of memory, never the full declared
// maxFrameBytes.
func readPayload(r io.Reader, n int) ([]byte, error) {
	if n <= readChunk {
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, err
		}
		return payload, nil
	}
	payload := make([]byte, 0, readChunk)
	for len(payload) < n {
		take := min(n-len(payload), readChunk)
		if cap(payload)-len(payload) < take {
			grown := make([]byte, len(payload), min(n, 2*cap(payload)+take))
			copy(grown, payload)
			payload = grown
		}
		m, err := io.ReadFull(r, payload[len(payload):len(payload)+take])
		payload = payload[:len(payload)+m]
		if err != nil {
			if err == io.EOF {
				// EOF between chunks is still mid-frame.
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return payload, nil
}

// enc appends fixed-width little-endian fields to a reusable buffer.
type enc struct{ b []byte }

func (e *enc) reset()       { e.b = e.b[:0] }
func (e *enc) u8(v byte)    { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) raw(p []byte) { e.b = append(e.b, p...) }

// dec consumes fixed-width little-endian fields; a short buffer trips the
// bad flag instead of panicking, checked once at the end with ok().
type dec struct {
	b   []byte
	bad bool
}

func (d *dec) take(n int) []byte {
	if d.bad || len(d.b) < n {
		d.bad = true
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *dec) u8() byte {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (d *dec) u16() uint16 {
	p := d.take(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}

func (d *dec) u32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (d *dec) u64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// ok reports whether every field decoded and the payload was fully
// consumed (trailing garbage is a protocol error too).
func (d *dec) ok() bool { return !d.bad && len(d.b) == 0 }

// readFrame reads one frame, rejecting oversized length prefixes. It
// decodes into buf when its capacity suffices, so a long-lived reader loop
// amortizes its receive buffer across frames — the header is read into buf
// too, so nothing escapes per frame; one-shot readers pass nil.
// Declared lengths beyond cap(buf) fall back to readPayload, preserving the
// chunked-growth bound against hostile length prefixes. The returned
// payload aliases buf (or the freshly grown buffer); the caller passes it
// back in as the next call's buf once done with it.
func readFrame(r io.Reader, buf []byte) (byte, []byte, error) {
	var hdr []byte
	if cap(buf) >= frameHeaderSize {
		hdr = buf[:frameHeaderSize]
	} else {
		hdr = make([]byte, frameHeaderSize)
	}
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	n, typ := binary.LittleEndian.Uint32(hdr[:4]), hdr[4]
	if n > maxFrameBytes {
		return 0, nil, fmt.Errorf("blocksvc: frame length %d exceeds limit", n)
	}
	if int(n) <= cap(buf) {
		payload := buf[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return 0, nil, err
		}
		return typ, payload, nil
	}
	payload, err := readPayload(r, int(n))
	if err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}

// largePayloadBytes is the nominal block payload from which a connection's
// reads stop br's fills where the next payload starts (frameReader.large):
// below it, one fill covering many entries beats a header read per entry.
const largePayloadBytes = 16 << 10

// frameReader reads a blocks frame's payload as a stream, the frame's
// declared length a hard budget: a field that would run past it fails before
// it is read. It is the decoder that faces the network — the client's read
// loop and the fuzz target both drive it through rconn.readBlocks — so it
// takes nothing for a length it has not checked and never panics. Failures
// are sticky: uint returns 0 once err is set, and callers test err where
// they are about to act on what they decoded.
type frameReader struct {
	br   *bufio.Reader
	fill *fillCap // br's source; Read takes payloads from fill.r directly
	// large makes readAhead cap br's fills, so a payload is not pulled into
	// br by the fill that reads its header; the handshake sets it when the
	// served geometry's blocks are at least largePayloadBytes.
	large bool
	left  int // bytes of the frame not yet consumed
	err   error
}

// newFrameReader reads src through a bufio.Reader of size bytes whose fills
// readAhead can cap.
func newFrameReader(src io.Reader, size int) frameReader {
	fill := &fillCap{r: src}
	return frameReader{br: bufio.NewReaderSize(fill, size), fill: fill}
}

// fillCap is br's source: r, read at most max bytes at a time while max > 0.
type fillCap struct {
	r   io.Reader
	max int
}

func (c *fillCap) Read(p []byte) (int, error) {
	if c.max > 0 && len(p) > c.max {
		p = p[:c.max]
	}
	return c.r.Read(p)
}

// readAhead lets br's fills reach n bytes past what the reader has consumed,
// when large: the fixed fields up to where the next OK entry's payload starts.
// A fill then leaves that payload in the socket for Read to take directly, at
// the price of one more small read per entry. n = 0 lifts the cap, for a
// frame read whole. A header the guess falls short of (a redirect, an error
// status) costs further fills; one it overshoots, a copy of a few bytes.
func (f *frameReader) readAhead(n int) {
	if !f.large {
		return
	}
	if n > 0 && n > f.br.Buffered() {
		n -= f.br.Buffered()
	}
	f.fill.max = n
}

// uint consumes a little-endian unsigned field of n ≤ 8 bytes straight from
// br's buffer.
func (f *frameReader) uint(n int) uint64 {
	if f.err != nil {
		return 0
	}
	if n > f.left {
		f.err = fmt.Errorf("a %d-byte field with %d bytes of the frame left", n, f.left)
		return 0
	}
	b, err := f.br.Peek(n)
	if err != nil {
		f.err = err
		return 0
	}
	var v uint64
	for i := n - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	f.br.Discard(n)
	f.left -= n
	return v
}

// Read is the payload path, for f32le.Read to fill a block buffer through:
// first what br already holds, then the connection itself, so payload bytes
// land where they stay without a pass through br's buffer — all of them when
// readAhead has kept br's fills out of the payload. The caller has checked
// the payload against the budget.
func (f *frameReader) Read(p []byte) (n int, err error) {
	if f.br.Buffered() > 0 {
		n, err = f.br.Read(p) // hands over buffered bytes only
	} else {
		n, err = f.fill.r.Read(p)
	}
	f.left -= n
	return n, err
}
