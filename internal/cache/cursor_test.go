package cache_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/grid"
	"repro/internal/policy"
)

// unstamped hands the policy it wraps each filter without its generation, so
// every victim it names comes from a scan from the front: the oracle the
// resumed scan is held to.
type unstamped struct{ cache.Policy }

func (u unstamped) Victim(incoming grid.BlockID, f cache.Filter) (grid.BlockID, bool) {
	return u.Policy.Victim(incoming, cache.Filter{Allow: f.Allow})
}

// cursorBlocks is how many block IDs the fuzz draws from.
const cursorBlocks = 16

// twinLevels drives one op stream through a level over p and a level over
// the same policy unstamped, and fails at the first op the two disagree on:
// what it returned, what it evicted, or what is left.
type twinLevels struct {
	got, want     *cache.Level
	gotEv, wantEv []grid.BlockID
	ops           int
}

func newTwinLevels(capacity int64, mk func() cache.Policy) *twinLevels {
	tw := &twinLevels{got: cache.NewLevel(capacity, mk()), want: cache.NewLevel(capacity, unstamped{mk()})}
	tw.got.OnEvict = func(id grid.BlockID, _ cache.Entry) { tw.gotEv = append(tw.gotEv, id) }
	tw.want.OnEvict = func(id grid.BlockID, _ cache.Entry) { tw.wantEv = append(tw.wantEv, id) }
	return tw
}

// step applies one op to both levels. op's low three bits pick it; a names
// the block and b its size, or a and b are a filter's allowed set.
func (tw *twinLevels) step(op, a, b byte) error {
	tw.ops++
	id := grid.BlockID(a % cursorBlocks)
	e := cache.Entry{Size: 1 + int64(b%3)}
	var got, want bool
	switch op & 7 {
	default:
		got, want = tw.got.Admit(id, e), tw.want.Admit(id, e)
	case 1:
		got, want = tw.got.Touch(id), tw.want.Touch(id)
	case 2:
		_, got = tw.got.Remove(id)
		_, want = tw.want.Remove(id)
	case 3: // Insert: a host that made room itself, or none
		if !tw.got.Contains(id) {
			tw.got.Add(id, e)
		}
		if !tw.want.Contains(id) {
			tw.want.Add(id, e)
		}
	case 4: // bit 3 of op makes it strict
		mask := uint16(a)<<8 | uint16(b)
		allowed := func(x grid.BlockID) bool { return mask>>x&1 == 1 }
		strict := op&8 != 0
		tw.got.SetEvictFilter(allowed, strict)
		tw.want.SetEvictFilter(allowed, strict)
	case 5:
		tw.got.SetEvictFilter(nil, false)
		tw.want.SetEvictFilter(nil, false)
	}
	if got != want {
		return fmt.Errorf("op %d (%#x %d %d): %v, naive scan %v", tw.ops, op, a, b, got, want)
	}
	if !slices.Equal(tw.gotEv, tw.wantEv) {
		return fmt.Errorf("op %d (%#x %d %d): evicted %v, naive scan %v", tw.ops, op, a, b, tw.gotEv, tw.wantEv)
	}
	if tw.got.Len() != tw.want.Len() || tw.got.Used() != tw.want.Used() {
		return fmt.Errorf("op %d: %d blocks / %d bytes, naive scan %d / %d",
			tw.ops, tw.got.Len(), tw.got.Used(), tw.want.Len(), tw.want.Used())
	}
	return nil
}

// cursorPolicies are the policies whose queues keep a filter cursor, with
// ImportanceLRU for a wrapper that hands one filter to two of them.
var cursorPolicies = []func() cache.Policy{
	func() cache.Policy { return cache.NewFIFO() },
	func() cache.Policy { return cache.NewLRU() },
	func() cache.Policy { return cache.NewARC() },
	func() cache.Policy {
		return policy.NewImportanceLRU(func(id grid.BlockID) float64 { return float64(id % 3) }, 1)
	},
}

// FuzzFilteredVictimEqualsScan: any Insert/Touch/Remove/Admit stream with
// filters installed, changed and lifted between them — random allowed sets,
// strict or not, or none — evicts on a level whose policy resumes its filtered
// scans exactly what it evicts when every scan starts from the front.
func FuzzFilteredVictimEqualsScan(f *testing.F) {
	// Fill 4 blocks 1–4, allow only 4 (the cursor passes 1–3), then allow 1
	// and 5: a cursor kept across the change names 5 instead of 1.
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 4, 0x00, 0x10, 0, 5, 0, 4, 0x00, 0x22, 0, 6, 0}, uint8(2))
	// The same under strict filters, lifted, a touch, and set again to 2 and
	// 5: the cursor is still past 3.
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 12, 0x00, 0x10, 0, 5, 0, 5, 0, 0, 1, 1, 0,
		12, 0x00, 0x24, 0, 6, 0, 0, 7, 1, 3, 8, 0, 0, 9, 0}, uint8(2))
	f.Add(bytes.Repeat([]byte{0, 3, 0, 0, 5, 1, 4, 0xaa, 0x55, 0, 7, 2, 1, 3, 0, 3, 9, 0, 12, 0x0f, 0xf0, 0, 11, 0, 2, 5, 0, 5, 0, 0}, 6), uint8(9))
	for seed := byte(1); seed <= 6; seed++ {
		data := make([]byte, 240)
		x := uint32(seed) * 2654435761
		for i := range data {
			x = x*1664525 + 1013904223
			data[i] = byte(x >> 24)
		}
		f.Add(data, seed*2)
	}
	f.Fuzz(func(t *testing.T, data []byte, cb uint8) {
		for _, mk := range cursorPolicies {
			tw := newTwinLevels(int64(cb%12)+2, mk)
			for i := 0; i+2 < len(data); i += 3 {
				if err := tw.step(data[i], data[i+1], data[i+2]); err != nil {
					t.Fatalf("%s: %v", mk().Name(), err)
				}
			}
		}
	})
}
