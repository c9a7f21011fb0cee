package visibility

// T_visible persistence: the table is computed once as pre-processing
// (§IV-B) — "this table is only computed once... it is independent to
// specific datasets and only depends on the views and the total block
// numbers of a volume" — so sessions save it and reload it without paying
// the sampling cost again. Saving materializes every key; loaded tables are
// fully materialized and need no radius strategy.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/grid"
)

const (
	persistMagic   = 0x74766973 // "tvis"
	persistVersion = 1
)

// Save materializes all keys and serializes the table.
func (t *Table) Save(w io.Writer) error {
	t.MaterializeAll()
	bw := bufio.NewWriter(w)
	head := []uint32{
		persistMagic, persistVersion,
		uint32(t.opts.NAzimuth), uint32(t.opts.NElevation), uint32(t.opts.NDistance),
	}
	for _, v := range head {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, f := range []float64{t.opts.RMin, t.opts.RMax, t.opts.ViewAngle} {
		if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(f)); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, int64(t.opts.QueryCostPerKey)); err != nil {
		return err
	}
	for i := range t.sets {
		set := t.PredictedSet(i)
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(set))); err != nil {
			return err
		}
		for _, id := range set {
			if err := binary.Write(bw, binary.LittleEndian, int32(id)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// frozenRadius is the placeholder strategy of loaded tables: every set is
// already materialized, so it must never be consulted.
type frozenRadius struct{}

func (frozenRadius) Radius(_, _ float64) float64 { return 0 }
func (frozenRadius) Name() string                { return "frozen(loaded-table)" }

// persistHeaderSize counts the magic, the version and the three lattice
// dimensions (uint32 each), RMin, RMax and ViewAngle (float64 bits) and the
// query cost per key (int64 nanoseconds).
const persistHeaderSize = 5*4 + 3*8 + 8

// Load reads a table written by Save. The grid must match the one the table
// was built over (validated against its block count). The input is not
// trusted: the header's key count sizes nothing until the stream has
// delivered that many keys, and a key's length nothing beyond the grid.
func Load(r io.Reader, g *grid.Grid) (*Table, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	var head [persistHeaderSize]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("visibility: short header: %v", err)
	}
	if le.Uint32(head[0:]) != persistMagic {
		return nil, fmt.Errorf("visibility: not a T_visible file")
	}
	if v := le.Uint32(head[4:]); v != persistVersion {
		return nil, fmt.Errorf("visibility: unsupported version %d", v)
	}
	opts := Options{
		NAzimuth:        int(le.Uint32(head[8:])),
		NElevation:      int(le.Uint32(head[12:])),
		NDistance:       int(le.Uint32(head[16:])),
		RMin:            math.Float64frombits(le.Uint64(head[20:])),
		RMax:            math.Float64frombits(le.Uint64(head[28:])),
		ViewAngle:       math.Float64frombits(le.Uint64(head[36:])),
		QueryCostPerKey: time.Duration(le.Uint64(head[44:])),
		Radius:          frozenRadius{},
		Lazy:            true,
	}
	numKeys, err := opts.validate()
	if err != nil {
		return nil, err
	}
	if opts.QueryCostPerKey <= 0 { // Save writes the default in place of 0
		return nil, fmt.Errorf("visibility: query cost %v per key", opts.QueryCostPerKey)
	}

	nBlocks := g.NumBlocks()
	var sets [][]grid.BlockID // grows with the stream, not to numKeys at once
	var raw []byte
	for i := 0; i < numKeys; i++ {
		var word [4]byte
		if _, err := io.ReadFull(br, word[:]); err != nil {
			return nil, fmt.Errorf("visibility: truncated at key %d: %v", i, err)
		}
		n := int(le.Uint32(word[:]))
		if n > nBlocks {
			return nil, fmt.Errorf("visibility: key %d claims %d blocks, grid has %d", i, n, nBlocks)
		}
		raw = slices.Grow(raw[:0], 4*n)[:4*n]
		if _, err := io.ReadFull(br, raw); err != nil {
			return nil, fmt.Errorf("visibility: truncated at key %d: %v", i, err)
		}
		set := make([]grid.BlockID, n)
		for j := range set {
			id := int32(le.Uint32(raw[4*j:]))
			if id < 0 || int(id) >= nBlocks {
				return nil, fmt.Errorf("visibility: key %d: block %d out of range", i, id)
			}
			if j > 0 && grid.BlockID(id) <= set[j-1] {
				return nil, fmt.Errorf("visibility: key %d: block %d after %d, want ascending", i, id, set[j-1])
			}
			set[j] = grid.BlockID(id)
		}
		sets = append(sets, set)
	}
	t := &Table{
		g:    g,
		opts: opts,
		sets: sets,
		once: make([]sync.Once, numKeys),
		done: make([]atomic.Bool, numKeys),
	}
	for i := range sets {
		t.once[i].Do(func() {}) // materialized: PredictedSet must not compute
		t.done[i].Store(true)
	}
	return t, nil
}
