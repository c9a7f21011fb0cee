// Package f32le is the one encoding of a block's voxels: little-endian
// IEEE-754 float32 bytes under a CRC-32C (Castagnoli). The block file
// (store), the spill file (tier), the wire (blocksvc), the fault injector
// (faultio) and cmd/datagen all move that format and all call here for it;
// each keeps only its own framing around the payload.
//
// On a little-endian host the encoding is the in-memory representation, so
// encoding and decoding are one bulk copy, Bytes is no copy at all and Read
// and ReadAt land a block's bytes in the slice they fill; the per-value loops
// are what a big-endian host runs. The package imports only
// the standard library, so any package — faultio, which store imports,
// included — can use it.
package f32le

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"unsafe"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLE gates the bulk paths. Only this package's tests write it, to run
// the portable loops on the little-endian machines tests run on.
var hostLE = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Bytes returns vals' encoding as a view of the same memory on a
// little-endian host, and nil elsewhere or for an empty slice (callers fall
// back to Append). The view must not outlive the slice's next write.
func Bytes(vals []float32) []byte {
	if !hostLE || len(vals) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), len(vals)*4)
}

// Append appends vals' encoding to b.
func Append(b []byte, vals []float32) []byte {
	if raw := Bytes(vals); raw != nil {
		return append(b, raw...)
	}
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

// Decode fills dst from the first 4*len(dst) bytes of src, overwriting
// whatever dst held. It panics when src is shorter than that: callers check
// lengths against their own framing before they size dst.
func Decode(dst []float32, src []byte) {
	src = src[:4*len(dst)]
	if raw := Bytes(dst); raw != nil {
		copy(raw, src)
		return
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// Checksum returns the CRC-32C of raw, the encoded bytes of a block.
func Checksum(raw []byte) uint32 { return crc32.Checksum(raw, castagnoli) }

// Read fills dst with the next 4*len(dst) encoded bytes of r and returns
// their CRC-32C, for the caller to hold against the sum its framing carries.
// On a little-endian host the bytes land in dst's own memory and are summed
// there: no staging buffer, no copy. A short read is an error (io.EOF when
// not one byte arrived, io.ErrUnexpectedEOF otherwise) and leaves dst partly
// overwritten.
func Read(r io.Reader, dst []float32) (uint32, error) {
	if raw := Bytes(dst); raw != nil || len(dst) == 0 {
		if _, err := io.ReadFull(r, raw); err != nil {
			return 0, err
		}
		return Checksum(raw), nil
	}
	// Big-endian host: the bytes pass through a bounded chunk and are
	// converted value by value, the sum taken over them as they arrive.
	var chunk [4096]byte
	var sum uint32
	for done := 0; done < len(dst); {
		part := chunk[:min(len(chunk), 4*(len(dst)-done))]
		if _, err := io.ReadFull(r, part); err != nil {
			if err == io.EOF && done > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		sum = crc32.Update(sum, castagnoli, part)
		Decode(dst[done:done+len(part)/4], part)
		done += len(part) / 4
	}
	return sum, nil
}

// ReadAt is Read of the 4*len(dst) bytes at offset off of r.
func ReadAt(r io.ReaderAt, off int64, dst []float32) (uint32, error) {
	if raw := Bytes(dst); raw != nil || len(dst) == 0 {
		// A ReaderAt may report io.EOF beside a full read that ends at the
		// end of its source.
		if n, err := r.ReadAt(raw, off); n < len(raw) {
			return 0, err
		}
		return Checksum(raw), nil
	}
	return Read(io.NewSectionReader(r, off, 4*int64(len(dst))), dst)
}
