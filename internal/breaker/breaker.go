// Package breaker is the repo's one circuit breaker. blocksvc keeps one per
// replica endpoint (bad network) and tier keeps one per spill directory (bad
// disk), so both degradation paths behave identically for operators. What
// counts as a failure is the caller's decision, made at the call site: a
// blocksvc response carrying checksum faults proves the endpoint works and
// is fed as a success, while the tier feeds read corruption as a failure — a
// device returning rotten bytes block after block is the device to stop
// trusting.
package breaker

import (
	"sync"
	"time"
)

// State is the classic circuit-breaker tristate. The numeric values are the
// *.breaker_state gauges.
type State int32

const (
	Closed   State = 0 // healthy: operations flow
	Open     State = 1 // failing: operations are refused until backoff elapses
	HalfOpen State = 2 // probing: one operation is in flight to test recovery
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker opens after threshold consecutive failures, then lets exactly one
// probe through per backoff window (half-open); a probe success closes it, a
// probe failure reopens it with doubled backoff up to maxBackoff. Callers
// pass the clock in, so the state machine is deterministic under test.
type Breaker struct {
	threshold  int
	base       time.Duration
	maxBackoff time.Duration

	mu       sync.Mutex
	state    State
	consec   int           // consecutive failures while closed
	backoff  time.Duration // current open-window length
	reopenAt time.Time     // when the next probe is allowed
}

// New returns a closed breaker that opens after threshold consecutive
// failures and backs off from base, doubling up to maxBackoff.
func New(threshold int, base, maxBackoff time.Duration) *Breaker {
	return &Breaker{threshold: threshold, base: base, maxBackoff: maxBackoff}
}

// Allow reports whether an operation may proceed now. In the open state it
// admits exactly one caller per backoff window — flipping to half-open, so
// that caller's operation is the recovery probe (probe=true).
func (b *Breaker) Allow(now time.Time) (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true, false
	case Open:
		if now.Before(b.reopenAt) {
			return false, false
		}
		b.state = HalfOpen
		return true, true
	default: // half-open: a probe is already out; don't pile on
		return false, false
	}
}

// Success records a healthy operation; reports whether it closed a
// previously open/half-open breaker (a recovery, for counters).
func (b *Breaker) Success() (recovered bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	recovered = b.state != Closed
	b.state = Closed
	b.consec = 0
	b.backoff = 0
	return recovered
}

// Failure records a failed operation; reports whether it opened the breaker
// (threshold reached, or a failed probe reopening it).
func (b *Breaker) Failure(now time.Time) (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.consec++
		if b.consec < b.threshold {
			return false
		}
	case Open:
		// Stragglers (e.g. pooled conns to an already-open endpoint dying)
		// don't extend the window.
		return false
	case HalfOpen:
		// The probe failed: reopen and back off harder.
	}
	b.state = Open
	b.consec = 0
	if b.backoff == 0 {
		b.backoff = b.base
	} else if b.backoff < b.maxBackoff {
		b.backoff = min(2*b.backoff, b.maxBackoff)
	}
	b.reopenAt = now.Add(b.backoff)
	return true
}

// State returns the current state for gauges and endpoint selection.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
