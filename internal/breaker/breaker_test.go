package breaker

import (
	"sync"
	"testing"
	"time"
)

// TestBreakerTransitions drives one breaker (threshold 3, base 100ms, max
// 300ms) through its whole state machine on an injected clock. Each step
// applies one operation at an offset from t0 and checks what it reports and
// the state it leaves behind.
func TestBreakerTransitions(t *testing.T) {
	const ms = time.Millisecond
	type op int
	const (
		allow op = iota
		fail
		succeed
	)
	steps := []struct {
		name string
		at   time.Duration
		op   op
		a, b bool // allow: ok, probe; fail: opened; succeed: recovered
		want State
	}{
		{"fresh breaker admits", 0, allow, true, false, Closed},
		{"failure 1 of 3", 0, fail, false, false, Closed},
		{"failure 2 of 3", 0, fail, false, false, Closed},
		{"threshold opens", 0, fail, true, false, Open},
		{"refused inside the window", 50 * ms, allow, false, false, Open},
		{"straggler does not reopen", 90 * ms, fail, false, false, Open},
		{"straggler did not extend the window: probe at base", 100 * ms, allow, true, true, HalfOpen},
		{"one probe per window", 100 * ms, allow, false, false, HalfOpen},
		{"failed probe reopens", 100 * ms, fail, true, false, Open},
		{"backoff doubled to 200ms", 250 * ms, allow, false, false, Open},
		{"probe after 200ms", 300 * ms, allow, true, true, HalfOpen},
		{"second failed probe", 300 * ms, fail, true, false, Open},
		{"doubling capped at max 300ms, not 400ms", 600 * ms, allow, true, true, HalfOpen},
		{"third failed probe", 600 * ms, fail, true, false, Open},
		{"backoff stays at the cap", 899 * ms, allow, false, false, Open},
		{"probe at the cap", 900 * ms, allow, true, true, HalfOpen},
		{"probe success closes", 900 * ms, succeed, true, false, Closed},
		{"success while closed is no recovery", 900 * ms, succeed, false, false, Closed},
		{"failure 1 after reset", 900 * ms, fail, false, false, Closed},
		{"success clears the streak", 900 * ms, succeed, false, false, Closed},
		{"streak restarts: 1", 900 * ms, fail, false, false, Closed},
		{"streak restarts: 2", 900 * ms, fail, false, false, Closed},
		{"streak restarts: 3 opens", 900 * ms, fail, true, false, Open},
		{"backoff reset to base by the recovery", 1000 * ms, allow, true, true, HalfOpen},
	}
	b := New(3, 100*ms, 300*ms)
	t0 := time.Unix(1000, 0)
	for _, s := range steps {
		now := t0.Add(s.at)
		switch s.op {
		case allow:
			if ok, probe := b.Allow(now); ok != s.a || probe != s.b {
				t.Fatalf("%s: Allow = %v, %v; want %v, %v", s.name, ok, probe, s.a, s.b)
			}
		case fail:
			if opened := b.Failure(now); opened != s.a {
				t.Fatalf("%s: Failure opened = %v, want %v", s.name, opened, s.a)
			}
		case succeed:
			if recovered := b.Success(); recovered != s.a {
				t.Fatalf("%s: Success recovered = %v, want %v", s.name, recovered, s.a)
			}
		}
		if got := b.State(); got != s.want {
			t.Fatalf("%s: state = %s, want %s", s.name, got, s.want)
		}
	}
}

// TestBreakerOneProbeUnderContention: many goroutines racing Allow on an
// open breaker whose window has elapsed — exactly one gets the probe.
func TestBreakerOneProbeUnderContention(t *testing.T) {
	b := New(1, time.Millisecond, time.Second)
	t0 := time.Unix(1000, 0)
	b.Failure(t0)
	var wg sync.WaitGroup
	admitted := make(chan bool, 32)
	for i := 0; i < cap(admitted); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, probe := b.Allow(t0.Add(time.Second))
			admitted <- ok && probe
		}()
	}
	wg.Wait()
	close(admitted)
	probes := 0
	for p := range admitted {
		if p {
			probes++
		}
	}
	if probes != 1 {
		t.Fatalf("%d probes admitted in one window, want exactly 1", probes)
	}
}
