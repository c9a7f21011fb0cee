package faultio

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/testutil"
)

func TestRetryable(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("plain I/O error"), true},
		{ErrTransient, true},
		{ErrPermanent, false},
		{Transient(errors.New("x")), true},
		{Permanent(errors.New("x")), false},
		{fmt.Errorf("wrapped: %w", ErrPermanent), false},
		{fmt.Errorf("wrapped: %w", Transient(ErrChecksum)), true},
		{fmt.Errorf("wrapped: %w", Permanent(ErrChecksum)), false},
		{context.Canceled, false},
		{context.DeadlineExceeded, true}, // per-try timeout: retry helps
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestMarkersPreserveChain(t *testing.T) {
	base := errors.New("base")
	err := fmt.Errorf("outer: %w", Permanent(base))
	if !errors.Is(err, base) || !errors.Is(err, ErrPermanent) {
		t.Errorf("chain broken: %v", err)
	}
	if Permanent(nil) != nil || Transient(nil) != nil {
		t.Error("marking nil produced an error")
	}
}

func TestRetrierEventualSuccess(t *testing.T) {
	r := &Retrier{MaxAttempts: 5, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond}
	calls := 0
	attempts, err := r.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return Transient(errors.New("flaky"))
		}
		return nil
	})
	if err != nil || attempts != 3 || calls != 3 {
		t.Fatalf("attempts=%d calls=%d err=%v", attempts, calls, err)
	}
}

func TestRetrierStopsOnPermanent(t *testing.T) {
	r := &Retrier{MaxAttempts: 5, BaseDelay: time.Microsecond}
	calls := 0
	attempts, err := r.Do(context.Background(), func(context.Context) error {
		calls++
		return Permanent(errors.New("gone"))
	})
	if calls != 1 || attempts != 1 {
		t.Errorf("permanent error retried: %d calls", calls)
	}
	if !errors.Is(err, ErrPermanent) {
		t.Errorf("err = %v", err)
	}
}

func TestRetrierExhaustsAttempts(t *testing.T) {
	r := &Retrier{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: 5 * time.Microsecond}
	calls := 0
	attempts, err := r.Do(context.Background(), func(context.Context) error {
		calls++
		return Transient(errors.New("always"))
	})
	if calls != 3 || attempts != 3 || err == nil {
		t.Errorf("attempts=%d calls=%d err=%v", attempts, calls, err)
	}
}

func TestRetrierHonorsCancel(t *testing.T) {
	r := &Retrier{MaxAttempts: 100, BaseDelay: 10 * time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	_, err := r.Do(ctx, func(context.Context) error {
		calls++
		cancel()
		return Transient(errors.New("flaky"))
	})
	if calls != 1 {
		t.Errorf("retried %d times after cancel", calls)
	}
	if err == nil {
		t.Error("no error after cancel")
	}
}

func TestRetrierPerTryDeadline(t *testing.T) {
	r := &Retrier{MaxAttempts: 3, BaseDelay: time.Microsecond, PerTry: 5 * time.Millisecond}
	calls := 0
	attempts, err := r.Do(context.Background(), func(ctx context.Context) error {
		calls++
		if calls == 1 {
			// Simulate a stuck read: wait for the per-try deadline.
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	})
	if err != nil || attempts != 2 {
		t.Fatalf("attempts=%d err=%v: per-try timeout did not trigger a retry", attempts, err)
	}
}

// memReader is an in-memory BlockReader with optional checksums.
type memReader struct {
	blocks map[grid.BlockID][]float32
	crcs   map[grid.BlockID]uint32
}

func newMemReader(withCRC bool, n int) *memReader {
	m := &memReader{blocks: make(map[grid.BlockID][]float32)}
	if withCRC {
		m.crcs = make(map[grid.BlockID]uint32)
	}
	for i := 0; i < n; i++ {
		id := grid.BlockID(i)
		vals := []float32{float32(i), float32(i) + 0.5, float32(i) * 2}
		m.blocks[id] = vals
		if withCRC {
			raw := make([]byte, 4*len(vals))
			for j, v := range vals {
				binary.LittleEndian.PutUint32(raw[4*j:], math.Float32bits(v))
			}
			m.crcs[id] = crc32.Checksum(raw, crc32.MakeTable(crc32.Castagnoli))
		}
	}
	return m
}

func (m *memReader) ReadBlock(id grid.BlockID) ([]float32, error) {
	vals, ok := m.blocks[id]
	if !ok {
		return nil, fmt.Errorf("no block %d: %w", id, ErrPermanent)
	}
	return vals, nil
}

func (m *memReader) ReadBlocks(ctx context.Context, ids []grid.BlockID) ([][]float32, []error) {
	return testutil.ReadEach(ctx, ids, m.ReadBlock)
}

func (m *memReader) RecycleBlockBuf([]float32) {}

func (m *memReader) BlockChecksum(id grid.BlockID) (uint32, bool) {
	if m.crcs == nil {
		return 0, false
	}
	c, ok := m.crcs[id]
	return c, ok
}

func TestInjectorPassthrough(t *testing.T) {
	in := NewInjector(newMemReader(false, 4), InjectorConfig{})
	for i := 0; i < 4; i++ {
		vals, err := in.ReadBlock(grid.BlockID(i))
		if err != nil || len(vals) != 3 {
			t.Fatalf("block %d: %v", i, err)
		}
	}
	st := in.Stats()
	if st.Reads != 4 || st.Transient+st.Permanent+st.Corrupted != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestInjectorDeterministic(t *testing.T) {
	run := func() []bool {
		in := NewInjector(newMemReader(false, 8), InjectorConfig{Seed: 7, FailRate: 0.5})
		var fails []bool
		for round := 0; round < 10; round++ {
			for i := 0; i < 8; i++ {
				_, err := in.ReadBlock(grid.BlockID(i))
				fails = append(fails, err != nil)
			}
		}
		return fails
	}
	a, b := run(), run()
	sawFail, sawOK := false, false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault sequence diverged at read %d", i)
		}
		if a[i] {
			sawFail = true
		} else {
			sawOK = true
		}
	}
	if !sawFail || !sawOK {
		t.Errorf("degenerate sequence: fail=%v ok=%v", sawFail, sawOK)
	}
	// A different seed produces a different sequence.
	in2 := NewInjector(newMemReader(false, 8), InjectorConfig{Seed: 8, FailRate: 0.5})
	var c []bool
	for round := 0; round < 10; round++ {
		for i := 0; i < 8; i++ {
			_, err := in2.ReadBlock(grid.BlockID(i))
			c = append(c, err != nil)
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seed change did not change the fault sequence")
	}
}

func TestInjectorTransientVsPermanent(t *testing.T) {
	in := NewInjector(newMemReader(false, 16), InjectorConfig{Seed: 1, FailRate: 1, PermanentFrac: 0.5})
	var transient, permanent int
	for i := 0; i < 200; i++ {
		_, err := in.ReadBlock(grid.BlockID(i % 16))
		if err == nil {
			t.Fatal("FailRate 1 produced a success")
		}
		switch {
		case errors.Is(err, ErrPermanent):
			permanent++
		case errors.Is(err, ErrTransient):
			transient++
		default:
			t.Fatalf("unclassified error: %v", err)
		}
	}
	if transient == 0 || permanent == 0 {
		t.Errorf("mix degenerate: %d transient, %d permanent", transient, permanent)
	}
	st := in.Stats()
	if st.Transient != int64(transient) || st.Permanent != int64(permanent) {
		t.Errorf("stats %+v vs observed %d/%d", st, transient, permanent)
	}
}

func TestInjectorFailBlocks(t *testing.T) {
	in := NewInjector(newMemReader(false, 4), InjectorConfig{FailBlocks: []grid.BlockID{2}})
	if _, err := in.ReadBlock(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		_, err := in.ReadBlock(2)
		if err == nil || !errors.Is(err, ErrPermanent) {
			t.Fatalf("FailBlocks read %d: %v", i, err)
		}
	}
}

func TestInjectorCorruptionDetectedWithChecksums(t *testing.T) {
	in := NewInjector(newMemReader(true, 4), InjectorConfig{Seed: 3, CorruptRate: 1})
	_, err := in.ReadBlock(0)
	if err == nil {
		t.Fatal("corruption with checksums returned data")
	}
	if !errors.Is(err, ErrChecksum) || !Retryable(err) {
		t.Errorf("corruption error %v: want retryable checksum fault", err)
	}
	st := in.Stats()
	if st.Corrupted != 1 || st.CorruptCaught != 1 || st.CorruptSilent != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestInjectorCorruptionSilentWithoutChecksums(t *testing.T) {
	clean := newMemReader(false, 4)
	in := NewInjector(clean, InjectorConfig{Seed: 3, CorruptRate: 1})
	vals, err := in.ReadBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	want := clean.blocks[0]
	same := true
	for i := range want {
		if vals[i] != want[i] {
			same = false
		}
	}
	if same {
		t.Error("corruption did not alter the payload")
	}
	st := in.Stats()
	if st.CorruptSilent != 1 || st.CorruptCaught != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestInjectorLatencyRespectsDeadline(t *testing.T) {
	in := NewInjector(newMemReader(false, 4), InjectorConfig{Latency: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, errs := in.ReadBlocks(ctx, []grid.BlockID{0})
	if errs[0] == nil {
		t.Fatal("deadline ignored")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("latency not interruptible")
	}
}

// stuckReader is a reader whose batches end only when their context does
// (as a blocksvc.RemoteReader's do), or at release.
type stuckReader struct{ release chan struct{} }

func (s stuckReader) ReadBlock(id grid.BlockID) ([]float32, error) {
	_, errs := s.ReadBlocks(context.Background(), []grid.BlockID{id})
	return nil, errs[0]
}

func (s stuckReader) ReadBlocks(ctx context.Context, ids []grid.BlockID) ([][]float32, []error) {
	err := errors.New("released")
	select {
	case <-ctx.Done():
		err = ctx.Err()
	case <-s.release:
	}
	errs := make([]error, len(ids))
	for i := range errs {
		errs[i] = err
	}
	return make([][]float32, len(ids)), errs
}

func (s stuckReader) RecycleBlockBuf([]float32) {}

// TestInjectorPassesContextDown: the caller's deadline must bound the inner
// read as well as the injected latency — with an injector in the stack a
// per-attempt deadline used to bound nothing once the inner read began. An
// inert injector forwards the batch; an active one reads each block alone.
func TestInjectorPassesContextDown(t *testing.T) {
	for _, cfg := range []InjectorConfig{{}, {Latency: time.Microsecond}} {
		inner := stuckReader{release: make(chan struct{})}
		in := NewInjector(inner, cfg)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		done := make(chan error, 1)
		go func() {
			_, errs := in.ReadBlocks(ctx, []grid.BlockID{0})
			done <- errs[0]
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%+v: read under an expired deadline returned %v", cfg, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%+v: the inner read ignored the caller's deadline", cfg)
		}
		cancel()
		close(inner.release)
	}
}

func TestInjectorCorruptionDoesNotAliasCache(t *testing.T) {
	// The corrupted slice must be a copy: later clean reads of the same
	// underlying data must see the original values.
	clean := newMemReader(false, 1)
	in := NewInjector(clean, InjectorConfig{Seed: 3, CorruptRate: 1})
	if _, err := in.ReadBlock(0); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float32{0, 0.5, 0} {
		if clean.blocks[0][i] != want {
			t.Errorf("injector corrupted the backing data in place at %d", i)
		}
	}
}
