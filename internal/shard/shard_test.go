package shard

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/grid"
)

func writeFile(path, body string) error {
	return os.WriteFile(path, []byte(body), 0o644)
}

func testMap(n int) *Map {
	m := &Map{Epoch: 1, Seed: 42}
	for i := 0; i < n; i++ {
		m.Shards = append(m.Shards, Shard{
			ID:    string(rune('a' + i)),
			Addrs: []string{"host:" + string(rune('0'+i))},
		})
	}
	return m
}

// TestRingDeterministic: the same (seed, vnodes, shard ids) must yield
// identical assignments across independent constructions — and across Go
// versions and processes, pinned by a golden checksum of the assignment
// sequence. If this value ever changes, the ring hash changed and every
// deployed cluster would disagree about ownership: that is a wire break,
// not a refactor.
func TestRingDeterministic(t *testing.T) {
	m := testMap(5)
	r1, r2 := m.Ring(), m.Ring()
	const keys = 10000
	var sum uint64 = 14695981039346656037
	for k := uint64(0); k < keys; k++ {
		o1, o2 := r1.Owner(k), r2.Owner(k)
		if o1 != o2 {
			t.Fatalf("key %d: owner %d vs %d across constructions", k, o1, o2)
		}
		sum = (sum ^ uint64(o1)) * 1099511628211
	}
	const golden = 0x3864351c014ba85b
	if sum != golden {
		t.Errorf("assignment checksum = %#x, want %#x (ring hash changed: "+
			"this breaks ownership agreement across versions)", sum, golden)
	}
}

// TestRingBalance: with DefaultVNodes the per-shard load should be within
// a reasonable factor of fair share.
func TestRingBalance(t *testing.T) {
	m := testMap(4)
	r := m.Ring()
	counts := make([]int, 4)
	const keys = 8192
	for k := uint64(0); k < keys; k++ {
		counts[r.Owner(k)]++
	}
	fair := keys / 4
	for i, c := range counts {
		if c < fair/3 || c > fair*3 {
			t.Errorf("shard %d owns %d of %d keys (fair share %d)", i, c, keys, fair)
		}
	}
}

// TestRingMinimalMovement pins the consistent-hashing contract: removing
// one shard moves exactly the keys it owned (survivor-owned keys never
// change hands), and the moved fraction is ~1/N; adding a shard moves only
// keys onto the newcomer.
func TestRingMinimalMovement(t *testing.T) {
	const nshards, keys = 8, 4096
	full := testMap(nshards)
	rFull := full.Ring()
	removed := full.WithoutShard(full.Shards[3].ID)
	if removed.Epoch != full.Epoch+1 {
		t.Errorf("WithoutShard epoch = %d, want %d", removed.Epoch, full.Epoch+1)
	}
	if len(removed.Shards) != nshards-1 {
		t.Fatalf("WithoutShard left %d shards", len(removed.Shards))
	}
	rLess := removed.Ring()

	// Compare by shard ID (indexes shift after the removal).
	moved := 0
	for k := uint64(0); k < keys; k++ {
		before := full.Shards[rFull.Owner(k)].ID
		after := removed.Shards[rLess.Owner(k)].ID
		if before != after {
			moved++
			if before != full.Shards[3].ID {
				t.Fatalf("key %d moved from surviving shard %q to %q", k, before, after)
			}
		}
	}
	// Expected moved fraction is 1/N; allow generous slack for hash noise
	// but fail on anything resembling a reshuffle.
	lo, hi := keys/(nshards*4), keys*3/nshards
	if moved < lo || moved > hi {
		t.Errorf("removal moved %d of %d keys, want roughly %d (bounds [%d,%d])",
			moved, keys, keys/nshards, lo, hi)
	}

	// Adding a shard: only keys landing on the newcomer may move.
	grown := full.Clone()
	grown.Epoch++
	grown.Shards = append(grown.Shards, Shard{ID: "newcomer", Addrs: []string{"host:9"}})
	rMore := grown.Ring()
	gained := 0
	for k := uint64(0); k < keys; k++ {
		before := full.Shards[rFull.Owner(k)].ID
		after := grown.Shards[rMore.Owner(k)].ID
		if before != after {
			gained++
			if after != "newcomer" {
				t.Fatalf("key %d moved between old shards (%q → %q) on an add", k, before, after)
			}
		}
	}
	lo, hi = keys/((nshards+1)*4), keys*3/(nshards+1)
	if gained < lo || gained > hi {
		t.Errorf("addition moved %d of %d keys, want roughly %d (bounds [%d,%d])",
			gained, keys, keys/(nshards+1), lo, hi)
	}
}

// TestOwnerBlockMatchesOwner: block IDs route through the same circle.
func TestOwnerBlockMatchesOwner(t *testing.T) {
	r := testMap(3).Ring()
	for id := grid.BlockID(0); id < 100; id++ {
		if r.OwnerBlock(id) != r.Owner(uint64(uint32(id))) {
			t.Fatalf("block %d: OwnerBlock disagrees with Owner", id)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	m := &Map{Epoch: 9, Seed: 1234567, VNodes: 32, Shards: []Shard{
		{ID: "alpha", Addrs: []string{"10.0.0.1:9000", "10.0.0.2:9000"}},
		{ID: "beta", Addrs: []string{"10.0.0.3:9000"}},
	}}
	got, err := DecodeBinary(m.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != m.Epoch || got.Seed != m.Seed || got.VNodes != m.VNodes ||
		len(got.Shards) != len(m.Shards) {
		t.Fatalf("round trip = %+v, want %+v", got, m)
	}
	for i := range m.Shards {
		if got.Shards[i].ID != m.Shards[i].ID {
			t.Errorf("shard %d id = %q", i, got.Shards[i].ID)
		}
		for j := range m.Shards[i].Addrs {
			if got.Shards[i].Addrs[j] != m.Shards[i].Addrs[j] {
				t.Errorf("shard %d addr %d = %q", i, j, got.Shards[i].Addrs[j])
			}
		}
	}
	// Trailing garbage is a framing error.
	if _, err := DecodeBinary(append(m.AppendBinary(nil), 0)); err == nil {
		t.Error("trailing byte decoded successfully")
	}
}

// TestDecodeHostileCounts: declared counts far beyond the payload must be
// rejected before any proportional allocation.
func TestDecodeHostileCounts(t *testing.T) {
	// 24-byte prelude claiming 4G shards with nothing behind it.
	var hostile []byte
	hostile = append(hostile, make([]byte, 16)...)        // epoch, seed
	hostile = append(hostile, 0, 0, 0, 0)                 // vnodes
	hostile = append(hostile, 0xFF, 0xFF, 0xFF, 0xFF)     // nshards = 4G-1
	hostile = append(hostile, 1, 0, 'x', 1, 0, 1, 0, 'y') // one real-looking shard
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeBinary(hostile); err == nil {
			t.Fatal("hostile shard count decoded")
		}
	}); n > 0 { // sentinel rejection: not even the Map header is allocated
		t.Errorf("rejecting a hostile count allocates %.1f times per run", n)
	}

	// Valid shard count, hostile address count inside the first shard.
	var e []byte
	e = append(e, make([]byte, 16)...)
	e = append(e, 0, 0, 0, 0)
	e = append(e, 1, 0, 0, 0) // one shard
	e = append(e, 1, 0, 'a')  // id "a"
	e = append(e, 0xFF, 0xFF) // naddrs = 65535
	if _, err := DecodeBinary(e); err == nil {
		t.Error("hostile address count decoded")
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		m    Map
	}{
		{"empty", Map{}},
		{"dup ids", Map{Shards: []Shard{
			{ID: "a", Addrs: []string{"x"}}, {ID: "a", Addrs: []string{"y"}}}}},
		{"no addrs", Map{Shards: []Shard{{ID: "a"}}}},
		{"empty id", Map{Shards: []Shard{{ID: "", Addrs: []string{"x"}}}}},
		{"neg vnodes", Map{VNodes: -1, Shards: []Shard{{ID: "a", Addrs: []string{"x"}}}}},
	}
	for _, tc := range cases {
		if err := tc.m.Validate(); err == nil {
			t.Errorf("%s: invalid map validated", tc.name)
		}
	}
	if err := testMap(3).Validate(); err != nil {
		t.Errorf("valid map refused: %v", err)
	}
}

func TestLoadTopologyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topo.json")
	body := `{"epoch": 3, "seed": 7, "shards": [
		{"id": "s0", "addrs": ["127.0.0.1:9100"]},
		{"id": "s1", "addrs": ["127.0.0.1:9101", "127.0.0.1:9201"]}
	]}`
	if err := writeFile(path, body); err != nil {
		t.Fatal(err)
	}
	m, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 3 || m.Seed != 7 || len(m.Shards) != 2 || len(m.Shards[1].Addrs) != 2 {
		t.Errorf("loaded %+v", m)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file loaded")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := writeFile(bad, `{"shards": []}`); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Error("empty topology loaded")
	}
}

func BenchmarkRingOwner(b *testing.B) {
	r := testMap(8).Ring()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.OwnerBlock(grid.BlockID(i & 0xFFFF))
	}
}

func BenchmarkRingBuild(b *testing.B) {
	m := testMap(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Ring()
	}
}

// FuzzDecodeBinary: whatever the payload, DecodeBinary returns (no panic),
// and a map it accepts is a valid topology that encodes back to exactly the
// bytes it was decoded from.
func FuzzDecodeBinary(f *testing.F) {
	f.Add(testMap(3).AppendBinary(nil))
	f.Add((&Map{Epoch: 9, Seed: 1, VNodes: 32, Shards: []Shard{
		{ID: "alpha", Addrs: []string{"10.0.0.1:9000", "10.0.0.2:9000"}},
	}}).AppendBinary(nil))
	f.Add(append(make([]byte, 20), 0xFF, 0xFF, 0xFF, 0xFF, 1, 0, 'x', 1, 0, 1, 0, 'y'))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeBinary(data)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("decoded an invalid map: %v", err)
		}
		if out := m.AppendBinary(nil); !bytes.Equal(out, data) {
			t.Fatalf("decoded %d bytes, re-encoded %d different ones", len(data), len(out))
		}
	})
}

// FuzzLoad: whatever the topology file holds, Load returns (no panic), and a
// map it accepts survives both encodings: the binary one the wire carries
// and its own JSON.
func FuzzLoad(f *testing.F) {
	f.Add([]byte(`{"epoch": 3, "seed": 7, "shards": [{"id": "s0", "addrs": ["127.0.0.1:9100"]}]}`))
	f.Add([]byte(`{"epoch": 1, "vnodes": 8, "shards": [{"id": "a", "addrs": ["x", "y"]}, {"id": "b", "addrs": ["z"]}]}`))
	f.Add([]byte(`{"shards": []}`))
	f.Add([]byte(`{"vnodes": -1, "shards": [{"id": "a", "addrs": ["x"]}]}`))
	path := filepath.Join(f.TempDir(), "topo.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := Load(path)
		if err != nil {
			return
		}
		wire, err := DecodeBinary(m.AppendBinary(nil))
		if err != nil || !reflect.DeepEqual(wire, m) {
			t.Fatalf("loaded %+v, over the wire %+v (%v)", m, wire, err)
		}
		js, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, js, 0o644); err != nil {
			t.Fatal(err)
		}
		if again, err := Load(path); err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("loaded %+v, reloaded from its JSON %+v (%v)", m, again, err)
		}
	})
}
