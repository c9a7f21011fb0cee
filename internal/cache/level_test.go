package cache

import (
	"slices"
	"testing"

	"repro/internal/grid"
)

// levelWith returns a level of the given capacity holding ids in order, ten
// bytes each, and the slice its OnEvict appends victims to.
func levelWith(capacity int64, ids ...grid.BlockID) (*Level, *[]grid.BlockID) {
	l := NewLevel(capacity, NewLRU())
	for _, id := range ids {
		l.Add(id, Entry{Size: 10})
	}
	evicted := &[]grid.BlockID{}
	l.OnEvict = func(id grid.BlockID, _ Entry) { *evicted = append(*evicted, id) }
	return l, evicted
}

func only(ids ...grid.BlockID) func(grid.BlockID) bool {
	return func(id grid.BlockID) bool { return slices.Contains(ids, id) }
}

func TestLevelAdmit(t *testing.T) {
	cases := []struct {
		name     string
		resident []grid.BlockID // admitted oldest first, 10 bytes each, capacity 30
		touch    []grid.BlockID
		filter   func(grid.BlockID) bool
		strict   bool
		admit    grid.BlockID
		size     int64

		admitted bool
		evicted  []grid.BlockID
		after    []grid.BlockID // resident afterwards
	}{
		{name: "fits", resident: []grid.BlockID{1, 2}, admit: 3, size: 10,
			admitted: true, after: []grid.BlockID{1, 2, 3}},
		{name: "evicts in policy order", resident: []grid.BlockID{1, 2, 3}, admit: 4, size: 10,
			admitted: true, evicted: []grid.BlockID{1}, after: []grid.BlockID{2, 3, 4}},
		{name: "evicts until it fits", resident: []grid.BlockID{1, 2, 3}, admit: 4, size: 25,
			admitted: true, evicted: []grid.BlockID{1, 2, 3}, after: []grid.BlockID{4}},
		{name: "larger than the level evicts nothing", resident: []grid.BlockID{1, 2, 3}, admit: 4, size: 31,
			admitted: false, after: []grid.BlockID{1, 2, 3}},
		{name: "resident block is a touch", resident: []grid.BlockID{1, 2, 3}, admit: 1, size: 10,
			admitted: true, after: []grid.BlockID{1, 2, 3}},
		{name: "a touch reorders the victims", resident: []grid.BlockID{1, 2, 3}, touch: []grid.BlockID{1}, admit: 4, size: 10,
			admitted: true, evicted: []grid.BlockID{2}, after: []grid.BlockID{1, 3, 4}},
		{name: "filter picks the victim", resident: []grid.BlockID{1, 2, 3}, filter: only(2, 3), admit: 4, size: 10,
			admitted: true, evicted: []grid.BlockID{2}, after: []grid.BlockID{1, 3, 4}},
		{name: "non-strict filter falls back to the policy", resident: []grid.BlockID{1, 2, 3}, filter: only(2), admit: 4, size: 20,
			admitted: true, evicted: []grid.BlockID{2, 1}, after: []grid.BlockID{3, 4}},
		{name: "strict filter stops, victims already taken stay gone", resident: []grid.BlockID{1, 2, 3}, filter: only(2), strict: true, admit: 4, size: 20,
			admitted: false, evicted: []grid.BlockID{2}, after: []grid.BlockID{1, 3}},
		{name: "strict filter with no candidate evicts nothing", resident: []grid.BlockID{1, 2, 3}, filter: only(), strict: true, admit: 4, size: 10,
			admitted: false, after: []grid.BlockID{1, 2, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, evicted := levelWith(30, tc.resident...)
			for _, id := range tc.touch {
				if !l.Touch(id) {
					t.Fatalf("block %d not resident", id)
				}
			}
			l.SetEvictFilter(tc.filter, tc.strict)
			if got := l.Admit(tc.admit, Entry{Size: tc.size}); got != tc.admitted {
				t.Errorf("Admit = %v, want %v", got, tc.admitted)
			}
			if !slices.Equal(*evicted, tc.evicted) {
				t.Errorf("evicted %v, want %v", *evicted, tc.evicted)
			}
			if l.Evictions != int64(len(tc.evicted)) {
				t.Errorf("Evictions = %d, want %d", l.Evictions, len(tc.evicted))
			}
			var used int64
			for id := grid.BlockID(0); id < 8; id++ {
				e, ok := l.Peek(id)
				if want := slices.Contains(tc.after, id); ok != want {
					t.Errorf("block %d: resident %v, want %v", id, ok, want)
				}
				used += e.Size
			}
			if l.Len() != len(tc.after) || l.Used() != used || used > l.Capacity {
				t.Errorf("Len %d, Used %d; want %d blocks, %d bytes within %d", l.Len(), l.Used(), len(tc.after), used, l.Capacity)
			}
			if held := sorted(drain(t, l.Policy)); !slices.Equal(held, sorted(tc.after)) {
				t.Errorf("policy holds %v, level %v", held, tc.after)
			}
		})
	}
}

// The hook is handed the victim's entry, voxels included: MemCache spills
// them and only then lets the reader recycle the slice.
func TestLevelHookSeesValue(t *testing.T) {
	l := NewLevel(8, NewLRU())
	vals := []float32{1, 2}
	l.Admit(1, Entry{Size: 8, Vals: vals})
	var got Entry
	l.OnEvict = func(id grid.BlockID, e Entry) {
		if id != 1 || l.Contains(1) {
			t.Errorf("hook for block %d, still resident %v", id, l.Contains(1))
		}
		got = e
	}
	l.Admit(2, Entry{Size: 8})
	if got.Size != 8 || len(got.Vals) != 2 || &got.Vals[0] != &vals[0] {
		t.Fatalf("hook saw %+v, want the admitted entry", got)
	}
}

// The spill tier makes room, writes its file with the lock released, and only
// then adds the entry; a failed write simply never adds.
func TestLevelMakeRoomThenAdd(t *testing.T) {
	l, evicted := levelWith(30, 1, 2, 3)
	if !l.MakeRoom(4, 10) {
		t.Fatal("MakeRoom(4, 10) = false")
	}
	if l.Used() != 20 || l.Contains(4) || !slices.Equal(*evicted, []grid.BlockID{1}) {
		t.Fatalf("after MakeRoom: used %d, evicted %v", l.Used(), *evicted)
	}
	l.Add(4, Entry{Size: 10})
	if e, ok := l.Peek(4); !ok || e.Size != 10 || l.Used() != 30 {
		t.Fatalf("after Add: entry %+v %v, used %d", e, ok, l.Used())
	}
	// Making room for nothing sheds an over-budget level to its capacity.
	l.Capacity = 15
	if !l.MakeRoom(5, 0) || l.Len() != 1 || !l.Contains(4) {
		t.Fatalf("shed to %d blocks, block 4 resident %v", l.Len(), l.Contains(4))
	}
}

func TestLevelRemoveIsNotAnEviction(t *testing.T) {
	l, evicted := levelWith(30, 1, 2)
	if e, ok := l.Remove(1); !ok || e.Size != 10 {
		t.Fatalf("Remove = %+v, %v", e, ok)
	}
	if _, ok := l.Remove(1); ok {
		t.Fatal("second Remove found the block")
	}
	if l.Evictions != 0 || len(*evicted) != 0 {
		t.Fatalf("Remove counted %d evictions, hook saw %v", l.Evictions, *evicted)
	}
	if v, _ := l.Policy.Victim(incoming, Filter{}); l.Used() != 10 || v != 2 {
		t.Fatalf("used %d, policy's victim %d; want 10 bytes and block 2", l.Used(), v)
	}
	if n := l.EvictWhere(only(2, 7)); n != 1 || l.Evictions != 1 || !slices.Equal(*evicted, []grid.BlockID{2}) {
		t.Fatalf("EvictWhere = %d, Evictions %d, hook saw %v", n, l.Evictions, *evicted)
	}
}

// EvictWhere visits the blocks in ascending ID order, whatever order they
// came in: a shard map update evicts the same sequence on every run.
func TestLevelEvictWhereAscending(t *testing.T) {
	l, evicted := levelWith(100, 9, 4, 7, 1, 12, 3)
	if n := l.EvictWhere(func(id grid.BlockID) bool { return id != 4 }); n != 5 {
		t.Fatalf("EvictWhere = %d, want 5", n)
	}
	if want := []grid.BlockID{1, 3, 7, 9, 12}; !slices.Equal(*evicted, want) {
		t.Fatalf("OnEvict saw %v, want %v", *evicted, want)
	}
	if l.Len() != 1 || !l.Contains(4) || l.Used() != 10 {
		t.Fatalf("left %d blocks, %d bytes; want block 4 alone", l.Len(), l.Used())
	}
}

// Block IDs outside the level's slice — past its end, or below zero — are
// simply not resident.
func TestLevelIDsOutsideTheSlice(t *testing.T) {
	l, _ := levelWith(100, 2)
	for _, id := range []grid.BlockID{-1, 3, 1 << 20} {
		if l.Contains(id) || l.Touch(id) {
			t.Errorf("block %d resident", id)
		}
		if _, ok := l.Remove(id); ok {
			t.Errorf("Remove(%d) found it", id)
		}
	}
	if l.Len() != 1 || l.Used() != 10 {
		t.Fatalf("Len %d, Used %d after misses", l.Len(), l.Used())
	}
}
