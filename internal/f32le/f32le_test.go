package f32le

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/iotest"
)

// refEncode is the tests' own encoder: a loop that shares nothing with the
// code under test.
func refEncode(vals []float32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

func testVectors() map[string][]float32 {
	rng := rand.New(rand.NewSource(1))
	random := make([]float32, 4099)
	for i := range random {
		random[i] = math.Float32frombits(rng.Uint32()) // every bit pattern, NaNs included
	}
	return map[string][]float32{
		"empty":  {},
		"nil":    nil,
		"random": random,
		"nan payloads": {
			math.Float32frombits(0x7fc00000), math.Float32frombits(0x7fc00001),
			math.Float32frombits(0xffc12345), math.Float32frombits(0x7f800001), // signalling
		},
		"signed zeros": {0, math.Float32frombits(0x80000000)},
		"subnormals": {
			math.Float32frombits(1), math.Float32frombits(0x007fffff),
			math.Float32frombits(0x80000001), math.SmallestNonzeroFloat32,
		},
		"ordinary": {1, -2.5, math.MaxFloat32, float32(math.Inf(-1))},
	}
}

// eachPath runs f on the host's path and on the portable loops a big-endian
// host takes (on a little-endian test machine those are two different paths).
func eachPath(t *testing.T, f func(t *testing.T)) {
	was := hostLE
	defer func() { hostLE = was }()
	for _, le := range []bool{was, false} {
		hostLE = le
		name := "portable"
		if le {
			name = "bulk"
		}
		t.Run(name, f)
	}
}

// TestPathsAgree: the bulk path and the per-value loops produce the reference
// bytes and decode them back to the same bit patterns, into a dirty buffer.
func TestPathsAgree(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		for name, vals := range testVectors() {
			want := refEncode(vals)
			got := Append([]byte{0xaa}, vals)
			if got[0] != 0xaa || !bytes.Equal(got[1:], want) {
				t.Errorf("%s: Append differs from the reference encoding", name)
			}
			if view := Bytes(vals); view != nil && !bytes.Equal(view, want) {
				t.Errorf("%s: Bytes differs from the reference encoding", name)
			}
			// A recycled buffer arrives holding another block's voxels, and
			// src may run on past the block (a staging buffer's tail).
			dst := make([]float32, len(vals))
			for i := range dst {
				dst[i] = float32(math.NaN())
			}
			Decode(dst, append(want, 0xde, 0xad, 0xbe, 0xef))
			for i := range vals {
				if math.Float32bits(dst[i]) != math.Float32bits(vals[i]) {
					t.Fatalf("%s: value %d decoded to bits %08x, want %08x",
						name, i, math.Float32bits(dst[i]), math.Float32bits(vals[i]))
				}
			}
		}
	})
}

func TestDecodeRefusesShortSource(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("Decode of 2 values from 7 bytes did not panic")
			}
		}()
		Decode(make([]float32, 2), make([]byte, 7))
	})
}

// TestBytesAliases: the view is the slice's own memory, and there is none of
// an empty slice or on a big-endian host.
func TestBytesAliases(t *testing.T) {
	if Bytes(nil) != nil || Bytes([]float32{}) != nil {
		t.Error("Bytes of an empty slice is not nil")
	}
	vals := []float32{1, 2, 3}
	if hostLE {
		view := Bytes(vals)
		if len(view) != 12 {
			t.Fatalf("view is %d bytes, want 12", len(view))
		}
		binary.LittleEndian.PutUint32(view[4:], math.Float32bits(-7))
		if vals[1] != -7 {
			t.Errorf("a write through the view left vals[1] = %g", vals[1])
		}
	}
	was := hostLE
	defer func() { hostLE = was }()
	hostLE = false
	if Bytes(vals) != nil {
		t.Error("Bytes returned a view on a big-endian host")
	}
}

func TestChecksumIsCRC32C(t *testing.T) {
	table := crc32.MakeTable(crc32.Castagnoli)
	for name, vals := range testVectors() {
		raw := refEncode(vals)
		if got, want := Checksum(raw), crc32.Checksum(raw, table); got != want {
			t.Errorf("%s: Checksum = %08x, want %08x", name, got, want)
		}
	}
	// The standard check value of CRC-32C.
	if got := Checksum([]byte("123456789")); got != 0xe3069283 {
		t.Errorf("Checksum(\"123456789\") = %08x, want e3069283", got)
	}
}

// TestReadEqualsDecode: Read and ReadAt leave in a dirty buffer exactly what
// Decode makes of the same bytes and return the bytes' CRC-32C, whether the
// source hands them over whole, a byte at a time or in halves; they consume
// 4*len(dst) bytes and no more; and a source that ends early is an error —
// io.EOF only when it gave nothing at all.
func TestReadEqualsDecode(t *testing.T) {
	sameBits := func(t *testing.T, name string, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: value %d read as bits %08x, Decode gives %08x",
					name, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
	dirty := func(n int) []float32 {
		dst := make([]float32, n)
		for i := range dst {
			dst[i] = float32(math.NaN())
		}
		return dst
	}
	eachPath(t, func(t *testing.T) {
		for name, vals := range testVectors() {
			enc := refEncode(vals)
			want := make([]float32, len(vals))
			Decode(want, enc)
			tail := []byte{0xde, 0xad, 0xbe, 0xef, 0x01}
			src := append(append([]byte{0x55, 0x66, 0x77}, enc...), tail...)
			for shape, wrap := range map[string]func(io.Reader) io.Reader{
				"whole":    func(r io.Reader) io.Reader { return r },
				"one byte": iotest.OneByteReader,
				"halves":   iotest.HalfReader,
			} {
				r := bytes.NewReader(src[3:])
				dst := dirty(len(vals))
				sum, err := Read(wrap(r), dst)
				if err != nil || sum != Checksum(enc) {
					t.Fatalf("%s/%s: Read = %08x, %v; want %08x", name, shape, sum, err, Checksum(enc))
				}
				sameBits(t, name+"/"+shape, dst, want)
				if rest, _ := io.ReadAll(r); !bytes.Equal(rest, tail) {
					t.Errorf("%s/%s: Read left %x behind the block, want %x", name, shape, rest, tail)
				}
			}
			dst := dirty(len(vals))
			sum, err := ReadAt(bytes.NewReader(src), 3, dst)
			if err != nil || sum != Checksum(enc) {
				t.Fatalf("%s: ReadAt = %08x, %v; want %08x", name, sum, err, Checksum(enc))
			}
			sameBits(t, name+"/ReadAt", dst, want)
			// The block ending where the source does is a full read.
			if _, err := ReadAt(bytes.NewReader(src[:3+len(enc)]), 3, dirty(len(vals))); err != nil {
				t.Errorf("%s: ReadAt of a block at the end of its source: %v", name, err)
			}
			if len(enc) == 0 {
				continue
			}
			for _, cut := range []int{0, 1, len(enc) / 2, len(enc) - 1} {
				wantErr := io.ErrUnexpectedEOF
				if cut == 0 {
					wantErr = io.EOF
				}
				if _, err := Read(bytes.NewReader(enc[:cut]), dirty(len(vals))); err != wantErr {
					t.Errorf("%s: Read of %d of %d bytes = %v, want %v", name, cut, len(enc), err, wantErr)
				}
				if _, err := ReadAt(bytes.NewReader(src[:3+cut]), 3, dirty(len(vals))); err == nil {
					t.Errorf("%s: ReadAt of %d of %d bytes succeeded", name, cut, len(enc))
				}
			}
		}
	})
}

// scheduled hands r's bytes over at most sched[i]+1 at a time, cycling
// through sched; with no schedule it hands over what is asked.
type scheduled struct {
	r     io.Reader
	sched []byte
	i     int
}

func (s *scheduled) Read(p []byte) (int, error) {
	if len(s.sched) > 0 {
		p = p[:min(len(p), int(s.sched[s.i%len(s.sched)])+1)]
		s.i++
	}
	return s.r.Read(p)
}

// FuzzRead: Read of n values from arbitrary bytes, handed over in pieces of
// an arbitrary schedule of sizes, on the host's path and the portable one. A
// read that succeeds consumed exactly 4n bytes, left them in dst and returned
// their CRC-32C; one the source cannot fill fails with io.EOF when no byte
// arrived and io.ErrUnexpectedEOF otherwise.
func FuzzRead(f *testing.F) {
	vals := testVectors()
	f.Add([]byte{}, []byte{}, uint16(0))
	f.Add([]byte{}, []byte{}, uint16(1))
	f.Add(refEncode(vals["nan payloads"]), []byte{0}, uint16(4))
	f.Add(refEncode(vals["subnormals"]), []byte{2, 6}, uint16(3))
	f.Add(refEncode(vals["ordinary"]), []byte{}, uint16(5))
	f.Add(refEncode(vals["random"]), []byte{255, 3}, uint16(4099))      // past the portable path's 4 KiB chunk
	f.Add(refEncode(vals["random"])[:4*1024+2], []byte{}, uint16(1025)) // short past a whole chunk
	f.Fuzz(func(t *testing.T, data, sched []byte, n uint16) {
		was := hostLE
		defer func() { hostLE = was }()
		for _, le := range []bool{was, false} {
			hostLE = le
			r := bytes.NewReader(data)
			dst := make([]float32, n)
			for i := range dst {
				dst[i] = float32(math.NaN())
			}
			sum, err := Read(&scheduled{r: r, sched: sched}, dst)
			want := 4 * int(n)
			if len(data) < want {
				wantErr := io.ErrUnexpectedEOF
				if len(data) == 0 {
					wantErr = io.EOF
				}
				if err != wantErr {
					t.Fatalf("hostLE %v: Read of %d values from %d bytes = %v, want %v", le, n, len(data), err, wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("hostLE %v: Read of %d values from %d bytes: %v", le, n, len(data), err)
			}
			if consumed := len(data) - r.Len(); consumed != want {
				t.Fatalf("hostLE %v: Read of %d values consumed %d bytes", le, n, consumed)
			}
			if sum != Checksum(data[:want]) || !bytes.Equal(refEncode(dst), data[:want]) {
				t.Fatalf("hostLE %v: Read = %08x and values unlike the bytes; want sum %08x", le, sum, Checksum(data[:want]))
			}
		}
	})
}
