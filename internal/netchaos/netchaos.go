// Package netchaos injects deterministic network failures into net.Conn
// traffic: latency, bandwidth caps, short reads/writes, connection resets,
// mid-frame stalls, partial writes, and in-flight byte corruption. It is
// the network analog of internal/faultio — the same seed always produces
// the same fault sequence, so a test that survives chaos once survives it
// every run, and a failing seed is a reproducer, not a flake.
//
// A Chaos value wraps either side of a connection: Listener intercepts the
// server's accepted conns (faults on server→client traffic), Dialer
// intercepts the client's dials (faults on client→server traffic), and
// Conn wraps a single connection directly. Wrappers compose — a conn can
// be wrapped by two Chaos values with different configs.
//
// All fault decisions are drawn on the write side from a per-connection
// splitmix64 stream seeded by (Config.Seed, connection index), so the
// decision sequence for connection k is a pure function of the config and
// the write sizes — independent of scheduling. Reads apply only bandwidth
// and chunking (no random draws), which keeps the read and write streams
// from interleaving nondeterministically.
//
// Blocking faults (latency, bandwidth pacing, stalls) honor the
// connection's deadlines: a stalled write aborts with
// os.ErrDeadlineExceeded when SetWriteDeadline passes, exactly like a real
// socket, and aborts with net.ErrClosed when the connection is closed.
package netchaos

import (
	"context"
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// ErrReset is the error surfaced by writes the chaos layer chose to reset.
// The peer observes a hard connection close.
var ErrReset = errors.New("netchaos: connection reset")

// Config describes the fault mix. The zero value injects nothing; every
// rate is a per-write probability in [0,1].
type Config struct {
	// Seed drives every random decision. Two Chaos values with equal
	// configs produce identical fault sequences.
	Seed uint64

	// Latency (plus a uniform draw in [0, LatencyJitter)) delays every
	// write before any bytes move.
	Latency       time.Duration
	LatencyJitter time.Duration
	// BandwidthBPS paces reads and writes to the given bytes/second when
	// positive.
	BandwidthBPS int64
	// ChunkBytes caps how many bytes one underlying Read or Write moves,
	// exercising short-read/short-write handling in the code under test.
	ChunkBytes int

	// ResetRate is the probability a write hard-closes the connection
	// instead of transmitting (the peer sees EOF mid-stream).
	ResetRate float64
	// StallRate is the probability a write blocks — for StallFor when
	// positive, else until a write deadline fires or the conn is closed —
	// before transmitting. A mid-frame stall is how a wedged-but-connected
	// peer looks.
	StallRate float64
	StallFor  time.Duration
	// PartialWriteRate is the probability a write transmits only a prefix
	// and then hard-closes the connection.
	PartialWriteRate float64
	// CorruptRate is the probability a write of at least CorruptMinBytes
	// has one bit flipped in transit. The floor exists so tests can corrupt
	// bulk data frames while leaving tiny handshake frames intact.
	CorruptRate     float64
	CorruptMinBytes int
}

// Stats counts the faults actually injected, across all connections.
type Stats struct {
	Conns           int64 // connections wrapped
	Resets          int64
	Stalls          int64
	PartialWrites   int64
	CorruptedWrites int64
	DelayedWrites   int64 // writes that paid Latency/jitter
}

// Chaos wraps connections with one fault configuration. Safe for
// concurrent use; create with New.
type Chaos struct {
	cfg      Config
	connSeq  atomic.Uint64
	resets   atomic.Int64
	stalls   atomic.Int64
	partials atomic.Int64
	corrupts atomic.Int64
	delays   atomic.Int64
}

// New returns a Chaos injecting the configured fault mix.
func New(cfg Config) *Chaos { return &Chaos{cfg: cfg} }

// Stats returns the faults injected so far.
func (c *Chaos) Stats() Stats {
	return Stats{
		Conns:           int64(c.connSeq.Load()),
		Resets:          c.resets.Load(),
		Stalls:          c.stalls.Load(),
		PartialWrites:   c.partials.Load(),
		CorruptedWrites: c.corrupts.Load(),
		DelayedWrites:   c.delays.Load(),
	}
}

// Conn wraps one connection. The n-th conn wrapped by this Chaos draws its
// faults from stream splitmix64(Seed, n), so wrap order defines the fault
// schedule.
func (c *Chaos) Conn(nc net.Conn) net.Conn {
	idx := c.connSeq.Add(1)
	cc := &conn{Conn: nc, ch: c, done: make(chan struct{})}
	cc.rng.s = (c.cfg.Seed+0x9E3779B97F4A7C15)*0x2545F4914F6CDD1D ^ idx
	cc.rdl.init()
	cc.wdl.init()
	return cc
}

// Listener wraps a listener so every accepted connection is chaos-wrapped.
func (c *Chaos) Listener(l net.Listener) net.Listener { return &listener{Listener: l, ch: c} }

// Dialer wraps an address-keyed dial function (blocksvc.ClientConfig.Dial's
// shape) so every dialed connection is chaos-wrapped.
func (c *Chaos) Dialer(dial func(ctx context.Context, addr string) (net.Conn, error)) func(ctx context.Context, addr string) (net.Conn, error) {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		nc, err := dial(ctx, addr)
		if err != nil {
			return nil, err
		}
		return c.Conn(nc), nil
	}
}

type listener struct {
	net.Listener
	ch *Chaos
}

func (l *listener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.ch.Conn(nc), nil
}

// conn is one chaos-wrapped connection. Writes serialize under wmu (the
// fault stream is sequential), reads under rmu.
type conn struct {
	net.Conn
	ch *Chaos

	wmu sync.Mutex
	rng rng

	rmu sync.Mutex

	rdl connDeadline
	wdl connDeadline

	closeOnce sync.Once
	done      chan struct{}
}

func (cc *conn) Close() error {
	cc.closeOnce.Do(func() { close(cc.done) })
	return cc.Conn.Close()
}

func (cc *conn) SetDeadline(t time.Time) error {
	cc.rdl.set(t)
	cc.wdl.set(t)
	return cc.Conn.SetDeadline(t)
}

func (cc *conn) SetReadDeadline(t time.Time) error {
	cc.rdl.set(t)
	return cc.Conn.SetReadDeadline(t)
}

func (cc *conn) SetWriteDeadline(t time.Time) error {
	cc.wdl.set(t)
	return cc.Conn.SetWriteDeadline(t)
}

func (cc *conn) Read(p []byte) (int, error) {
	cc.rmu.Lock()
	defer cc.rmu.Unlock()
	cfg := &cc.ch.cfg
	if cfg.ChunkBytes > 0 && len(p) > cfg.ChunkBytes {
		p = p[:cfg.ChunkBytes]
	}
	n, err := cc.Conn.Read(p)
	if n > 0 && cfg.BandwidthBPS > 0 {
		if berr := cc.block(paceFor(n, cfg.BandwidthBPS), &cc.rdl); berr != nil && err == nil {
			err = berr
		}
	}
	return n, err
}

func (cc *conn) Write(p []byte) (int, error) {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	cfg := &cc.ch.cfg

	// Decision draws happen in a fixed order, each gated on its config
	// field, so the sequence is reproducible for a given config and seed.
	if d := cc.latency(cfg); d > 0 {
		cc.ch.delays.Add(1)
		if err := cc.block(d, &cc.wdl); err != nil {
			return 0, err
		}
	}
	if cfg.StallRate > 0 && cc.rng.float() < cfg.StallRate {
		cc.ch.stalls.Add(1)
		if err := cc.block(cfg.StallFor, &cc.wdl); err != nil {
			return 0, err
		}
	}
	if cfg.ResetRate > 0 && cc.rng.float() < cfg.ResetRate {
		cc.ch.resets.Add(1)
		cc.Close()
		return 0, ErrReset
	}
	buf := p
	if cfg.CorruptRate > 0 && len(p) >= cfg.CorruptMinBytes && len(p) > 0 &&
		cc.rng.float() < cfg.CorruptRate {
		cc.ch.corrupts.Add(1)
		buf = append([]byte(nil), p...)
		pos := int(cc.rng.next() % uint64(len(buf)))
		buf[pos] ^= 1 << (cc.rng.next() % 8)
	}
	if cfg.PartialWriteRate > 0 && len(buf) > 1 && cc.rng.float() < cfg.PartialWriteRate {
		cc.ch.partials.Add(1)
		n, _ := cc.writePaced(buf[:len(buf)/2])
		cc.Close()
		return n, ErrReset
	}
	return cc.writePaced(buf)
}

// latency draws this write's delay: base latency plus uniform jitter.
func (cc *conn) latency(cfg *Config) time.Duration {
	d := cfg.Latency
	if cfg.LatencyJitter > 0 {
		d += time.Duration(cc.rng.float() * float64(cfg.LatencyJitter))
	}
	return d
}

// writePaced moves buf through the underlying conn in ChunkBytes pieces,
// pacing each piece to BandwidthBPS.
func (cc *conn) writePaced(buf []byte) (int, error) {
	cfg := &cc.ch.cfg
	chunk := cfg.ChunkBytes
	if chunk <= 0 {
		chunk = len(buf)
	}
	written := 0
	for written < len(buf) {
		end := min(written+chunk, len(buf))
		if cfg.BandwidthBPS > 0 {
			if err := cc.block(paceFor(end-written, cfg.BandwidthBPS), &cc.wdl); err != nil {
				return written, err
			}
		}
		n, err := cc.Conn.Write(buf[written:end])
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// block sleeps for d (forever when d <= 0), aborting with
// os.ErrDeadlineExceeded when the mirrored deadline fires or net.ErrClosed
// when the connection closes.
func (cc *conn) block(d time.Duration, dl *connDeadline) error {
	var timeout <-chan time.Time
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	for {
		wait := dl.wait()
		select {
		case <-timeout:
			return nil
		case <-cc.done:
			return net.ErrClosed
		case <-wait:
			// The deadline channel fired, but the deadline may have been
			// replaced since we fetched it — only a currently-expired
			// deadline is a timeout.
			if dl.expired() {
				return os.ErrDeadlineExceeded
			}
		}
	}
}

// paceFor is the transfer time of n bytes at bps.
func paceFor(n int, bps int64) time.Duration {
	return time.Duration(float64(n) / float64(bps) * float64(time.Second))
}

// connDeadline mirrors a connection deadline as a closable channel, the
// same shape net.Pipe uses: wait() returns a channel that is closed while
// the deadline is in the past.
type connDeadline struct {
	mu     sync.Mutex
	t      time.Time
	timer  *time.Timer
	cancel chan struct{}
}

func (d *connDeadline) init() { d.cancel = make(chan struct{}) }

func (d *connDeadline) set(t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.timer != nil && !d.timer.Stop() {
		<-d.cancel // the timer fired concurrently; wait for its close
	}
	d.timer = nil
	d.t = t

	closed := isClosed(d.cancel)
	if t.IsZero() {
		if closed {
			d.cancel = make(chan struct{})
		}
		return
	}
	if dur := time.Until(t); dur > 0 {
		if closed {
			d.cancel = make(chan struct{})
		}
		cancel := d.cancel
		d.timer = time.AfterFunc(dur, func() { close(cancel) })
		return
	}
	if !closed {
		close(d.cancel)
	}
}

func (d *connDeadline) wait() chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cancel
}

func (d *connDeadline) expired() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return !d.t.IsZero() && !d.t.After(time.Now())
}

func isClosed(c chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// rng is a splitmix64 stream: tiny, seedable, and good enough to decide
// which writes get hurt.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}
