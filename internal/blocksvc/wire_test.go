package blocksvc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/faultio"
	"repro/internal/grid"
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

// TestDecodeWelcomeStrict: caps and maxRequests are required. A welcome cut
// short of them — the shape hand-built doubles used to emit — is malformed,
// not "no capabilities, one request in flight"; the client then refuses
// the connection permanently rather than running unpipelined.
func TestDecodeWelcomeStrict(t *testing.T) {
	var e enc
	e.u16(ProtoVersion)
	e.u64(7)
	for _, v := range []uint32{16, 16, 16, 4, 4, 4, 1, 64, 2, 5000} {
		e.u32(v)
	}
	if _, ok := decodeWelcome(e.b); ok {
		t.Fatal("welcome without caps/maxRequests decoded")
	}
	e.u32(capCompress)
	if _, ok := decodeWelcome(e.b); ok {
		t.Fatal("welcome without maxRequests decoded")
	}
	e.u32(4)
	w, ok := decodeWelcome(e.b)
	if !ok || w.Caps != capCompress || w.MaxRequests != 4 || w.HeartbeatMillis != 5000 {
		t.Fatalf("full welcome = %+v, ok=%v", w, ok)
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
			writeFrame(c, msgWelcome, e.b[:len(e.b)-8])
			c.Close()
		}
	}()
	_, err := Dial(ClientConfig{Dial: lis.Dial, Retry: fastRetry(3)})
	if err == nil || faultio.Retryable(err) {
		t.Fatalf("Dial against a short welcome = %v, want a permanent refusal", err)
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
