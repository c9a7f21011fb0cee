package netchaos

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// pipePair returns both ends of an in-memory connection with the client
// side chaos-wrapped.
func pipePair(c *Chaos) (wrapped, peer net.Conn) {
	a, b := net.Pipe()
	return c.Conn(a), b
}

// pump reads everything from c until EOF/error, delivering the bytes.
func pump(c net.Conn) <-chan []byte {
	out := make(chan []byte, 1)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, c)
		out <- buf.Bytes()
	}()
	return out
}

func TestSameSeedSameFaults(t *testing.T) {
	run := func() Stats {
		ch := New(Config{
			Seed:             42,
			ResetRate:        0.2,
			PartialWriteRate: 0.2,
			CorruptRate:      0.3,
		})
		for conn := 0; conn < 4; conn++ {
			w, peer := pipePair(ch)
			got := pump(peer)
			msg := []byte("0123456789abcdef")
			for i := 0; i < 16; i++ {
				if _, err := w.Write(msg); err != nil {
					break
				}
			}
			w.Close()
			<-got
		}
		return ch.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different fault sequences: %+v vs %+v", a, b)
	}
	if a.Resets == 0 && a.PartialWrites == 0 && a.CorruptedWrites == 0 {
		t.Fatalf("no faults injected at all: %+v", a)
	}
}

func TestCorruptionFlipsExactlyOneBit(t *testing.T) {
	ch := New(Config{Seed: 7, CorruptRate: 1, CorruptMinBytes: 8})
	w, peer := pipePair(ch)
	got := pump(peer)
	msg := make([]byte, 64)
	if _, err := w.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	w.Close()
	out := <-got
	if len(out) != len(msg) {
		t.Fatalf("got %d bytes, want %d", len(out), len(msg))
	}
	diff := 0
	for i := range out {
		for bit := 0; bit < 8; bit++ {
			if (out[i]^msg[i])&(1<<bit) != 0 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("corruption flipped %d bits, want exactly 1", diff)
	}
}

func TestCorruptMinBytesSparesSmallWrites(t *testing.T) {
	ch := New(Config{Seed: 7, CorruptRate: 1, CorruptMinBytes: 1024})
	w, peer := pipePair(ch)
	got := pump(peer)
	msg := []byte("small handshake frame")
	if _, err := w.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	w.Close()
	if out := <-got; !bytes.Equal(out, msg) {
		t.Fatalf("small write was corrupted: %q", out)
	}
	if st := ch.Stats(); st.CorruptedWrites != 0 {
		t.Fatalf("CorruptedWrites = %d, want 0", st.CorruptedWrites)
	}
}

func TestStallHonorsWriteDeadline(t *testing.T) {
	ch := New(Config{Seed: 1, StallRate: 1}) // StallFor 0: stall forever
	w, peer := pipePair(ch)
	defer peer.Close()
	defer w.Close()
	w.SetWriteDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	_, err := w.Write([]byte("never arrives"))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled write returned %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("deadline took %v to fire", d)
	}
	if st := ch.Stats(); st.Stalls != 1 {
		t.Fatalf("Stalls = %d, want 1", st.Stalls)
	}
}

func TestStallAbortsOnClose(t *testing.T) {
	ch := New(Config{Seed: 1, StallRate: 1})
	w, peer := pipePair(ch)
	defer peer.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := w.Write([]byte("never arrives"))
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	w.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("stalled write returned %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled write did not abort on close")
	}
}

func TestDeadlineExtensionKeepsBlocking(t *testing.T) {
	ch := New(Config{Seed: 1, StallRate: 1, StallFor: 60 * time.Millisecond})
	w, peer := pipePair(ch)
	defer peer.Close()
	defer w.Close()
	got := pump(peer)
	// Set a deadline that would fire mid-stall, then push it out before it
	// does: the stall must ride through and the write complete.
	w.SetWriteDeadline(time.Now().Add(30 * time.Millisecond))
	go func() {
		time.Sleep(10 * time.Millisecond)
		w.SetWriteDeadline(time.Now().Add(5 * time.Second))
	}()
	if _, err := w.Write([]byte("late but intact")); err != nil {
		t.Fatalf("write after deadline extension: %v", err)
	}
	w.Close()
	if out := <-got; string(out) != "late but intact" {
		t.Fatalf("got %q", out)
	}
}

func TestResetSurfacesAndClosesPeer(t *testing.T) {
	ch := New(Config{Seed: 3, ResetRate: 1})
	w, peer := pipePair(ch)
	got := pump(peer)
	if _, err := w.Write([]byte("doomed")); !errors.Is(err, ErrReset) {
		t.Fatalf("write returned %v, want ErrReset", err)
	}
	if out := <-got; len(out) != 0 {
		t.Fatalf("peer received %q after reset", out)
	}
	if st := ch.Stats(); st.Resets != 1 {
		t.Fatalf("Resets = %d, want 1", st.Resets)
	}
}

func TestPartialWriteDeliversPrefixThenCloses(t *testing.T) {
	ch := New(Config{Seed: 5, PartialWriteRate: 1})
	w, peer := pipePair(ch)
	got := pump(peer)
	msg := []byte("0123456789")
	n, err := w.Write(msg)
	if !errors.Is(err, ErrReset) {
		t.Fatalf("write returned %v, want ErrReset", err)
	}
	out := <-got
	if n != len(msg)/2 || !bytes.Equal(out, msg[:n]) {
		t.Fatalf("partial write delivered %q (n=%d), want prefix %q", out, n, msg[:len(msg)/2])
	}
}

func TestChunkingPreservesBytes(t *testing.T) {
	ch := New(Config{Seed: 9, ChunkBytes: 7})
	w, peer := pipePair(ch)
	got := pump(peer)
	msg := make([]byte, 1000)
	for i := range msg {
		msg[i] = byte(i)
	}
	if _, err := w.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	w.Close()
	if out := <-got; !bytes.Equal(out, msg) {
		t.Fatalf("chunked transfer mangled the stream (%d bytes)", len(out))
	}
}

func TestLatencyDelaysWrites(t *testing.T) {
	ch := New(Config{Seed: 9, Latency: 20 * time.Millisecond})
	w, peer := pipePair(ch)
	got := pump(peer)
	start := time.Now()
	if _, err := w.Write([]byte("slow")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("write returned after %v, want >= ~20ms of injected latency", d)
	}
	w.Close()
	<-got
	if st := ch.Stats(); st.DelayedWrites != 1 {
		t.Fatalf("DelayedWrites = %d, want 1", st.DelayedWrites)
	}
}

func TestDialerAndListenerWrap(t *testing.T) {
	ch := New(Config{Seed: 11})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	wrapped := ch.Listener(lis)
	defer wrapped.Close()
	done := make(chan []byte, 1)
	go func() {
		c, err := wrapped.Accept()
		if err != nil {
			done <- nil
			return
		}
		defer c.Close()
		buf, _ := io.ReadAll(c)
		done <- buf
	}()
	dial := ch.Dialer(func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	})
	c, err := dial(context.Background(), lis.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := c.Write([]byte("through both wrappers")); err != nil {
		t.Fatalf("write: %v", err)
	}
	c.Close()
	if got := <-done; string(got) != "through both wrappers" {
		t.Fatalf("got %q", got)
	}
	if st := ch.Stats(); st.Conns != 2 {
		t.Fatalf("Conns = %d, want 2 (one dialed, one accepted)", st.Conns)
	}
}
