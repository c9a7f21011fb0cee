package entropy

// T_important persistence: the table is a one-time pre-processing product
// (§IV-C), so sessions save it once and reload it instead of re-scoring
// every block.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

const (
	persistMagic   = 0x74696d70 // "timp"
	persistVersion = 1
)

// Save serializes the table.
func (t *Table) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, v := range []uint32{persistMagic, persistVersion, uint32(len(t.scores))} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, s := range t.scores {
		if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(s)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a table written by Save. The input is not trusted: the
// header's block count sizes nothing; the table grows with the scores the
// stream actually delivers.
func Load(r io.Reader) (*Table, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	var head [12]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("entropy: short header: %v", err)
	}
	if le.Uint32(head[0:]) != persistMagic {
		return nil, fmt.Errorf("entropy: not a T_important file")
	}
	if v := le.Uint32(head[4:]); v != persistVersion {
		return nil, fmt.Errorf("entropy: unsupported version %d", v)
	}
	var scores []float64
	var word [8]byte
	for i, n := uint32(0), le.Uint32(head[8:]); i < n; i++ {
		if _, err := io.ReadFull(br, word[:]); err != nil {
			return nil, fmt.Errorf("entropy: truncated at block %d: %v", i, err)
		}
		scores = append(scores, math.Float64frombits(le.Uint64(word[:])))
	}
	return NewTable(scores), nil
}
