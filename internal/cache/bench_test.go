package cache

import (
	"testing"

	"repro/internal/grid"
)

// benchCycle drives a policy through a level of cap unit-sized blocks over
// a cyclic working set of span blocks, stepping a StepAware policy along.
// One lap before the clock grows every per-block slice to span, so what is
// timed allocates only what the policy does per admission.
func benchCycle(b *testing.B, p Policy, span, cap int) {
	b.Helper()
	l := NewLevel(int64(cap), p)
	for i := 0; i < span; i++ {
		l.Admit(grid.BlockID(i), Entry{Size: 1})
	}
	sa, _ := p.(StepAware)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sa != nil {
			sa.SetStep(i % (1 << 16))
		}
		l.Admit(grid.BlockID(i%span), Entry{Size: 1})
	}
}

func BenchmarkFIFOCycle(b *testing.B) { benchCycle(b, NewFIFO(), 2048, 512) }
func BenchmarkLRUCycle(b *testing.B)  { benchCycle(b, NewLRU(), 2048, 512) }
func BenchmarkARCCycle(b *testing.B)  { benchCycle(b, NewARC(), 2048, 512) }

func BenchmarkBeladyCycle(b *testing.B) {
	// Belady needs a trace; synthesize the cyclic one benchCycle requests.
	trace := make([]grid.BlockID, 1<<16)
	for i := range trace {
		trace[i] = grid.BlockID(i % 2048)
	}
	benchCycle(b, NewBelady(trace), 2048, 512)
}

func BenchmarkVictimFiltered(b *testing.B) {
	l := NewLRU()
	for i := 0; i < 1024; i++ {
		l.Insert(grid.BlockID(i))
	}
	// A filter admitting only the newest half forces a long scan.
	allowed := Filter{Allow: func(id grid.BlockID) bool { return id >= 512 }}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := l.Victim(incoming, allowed); !ok {
			b.Fatal("no victim")
		}
	}
}
