package store

import "testing"

func TestBufPool(t *testing.T) {
	var p BufPool
	if buf, reused := p.Get(8); reused || len(buf) != 8 {
		t.Fatalf("empty pool: len %d reused %v", len(buf), reused)
	}
	if p.Put(nil) {
		t.Fatal("kept a buffer without capacity")
	}
	small, big := make([]float32, 4), make([]float32, 16)
	p.Put(big)
	p.Put(small)
	// The too-small candidate on top is skipped, not dropped.
	if buf, reused := p.Get(8); !reused || len(buf) != 8 || &buf[0] != &big[0] {
		t.Fatalf("want big reused at len 8, got len %d reused %v", len(buf), reused)
	}
	if buf, reused := p.Get(4); !reused || &buf[0] != &small[0] {
		t.Fatal("small buffer was not left for a smaller block")
	}
	kept := 0
	for i := 0; i < 2*maxFreeBufs; i++ {
		if p.Put(make([]float32, 1)) {
			kept++
		}
	}
	if kept != maxFreeBufs {
		t.Fatalf("kept %d buffers, bound is %d", kept, maxFreeBufs)
	}
}
