package testutil

import (
	"context"
	"fmt"
	"net"
	"sync"
)

// PipeListener is an in-process transport: a net.Listener whose Dial hands
// the server the other end of a net.Pipe. It lets tests and benchmarks run
// a full server/client stack — framing, admission, prefetch — in one
// process with no sockets, which is also how the in-process end-to-end and
// race tests keep the tier-1 suite hermetic.
type PipeListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

// NewPipeListener returns a ready listener; pass it to Server.Serve and
// its Dial to blocksvc.ClientConfig.Dial.
func NewPipeListener() *PipeListener {
	return &PipeListener{ch: make(chan net.Conn), done: make(chan struct{})}
}

// Accept implements net.Listener.
func (l *PipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, fmt.Errorf("testutil: pipe listener closed")
	}
}

// Close implements net.Listener.
func (l *PipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// Addr implements net.Listener.
func (l *PipeListener) Addr() net.Addr { return pipeAddr{} }

// Dial connects a client to the listener: the returned conn's peer is
// delivered to Accept. It has blocksvc.ClientConfig.Dial's signature; a pipe has one
// peer, so the address is ignored.
func (l *PipeListener) Dial(ctx context.Context, _ string) (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.ch <- server:
		return client, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, fmt.Errorf("testutil: pipe listener closed")
	case <-ctx.Done():
		client.Close()
		server.Close()
		return nil, ctx.Err()
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
