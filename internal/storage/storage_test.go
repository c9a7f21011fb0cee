package storage

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTransferTime(t *testing.T) {
	d := Device{Name: "x", Latency: time.Millisecond, Bandwidth: 1e6} // 1 MB/s
	// 1 MB at 1 MB/s = 1 s, plus 1 ms latency.
	got := d.TransferTime(1e6)
	want := time.Second + time.Millisecond
	if got != want {
		t.Errorf("TransferTime = %v, want %v", got, want)
	}
	// Zero bytes still pay latency.
	if got := d.TransferTime(0); got != time.Millisecond {
		t.Errorf("zero-byte transfer = %v", got)
	}
}

func TestTransferTimeZeroBandwidth(t *testing.T) {
	d := Device{Latency: time.Microsecond}
	if got := d.TransferTime(1 << 30); got != time.Microsecond {
		t.Errorf("zero-bandwidth transfer = %v", got)
	}
}

func TestTransferTimePanicsOnNegativeSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative size did not panic")
		}
	}()
	DRAM().TransferTime(-1)
}

func TestDeviceHierarchyOrdering(t *testing.T) {
	// The whole premise of the memory hierarchy: each level is strictly
	// faster than the one below for any block size.
	sizes := []int64{4 << 10, 1 << 20, 16 << 20}
	for _, n := range sizes {
		dram := DRAM().TransferTime(n)
		ssd := SSD().TransferTime(n)
		hdd := HDD().TransferTime(n)
		if !(dram < ssd && ssd < hdd) {
			t.Errorf("size %d: DRAM %v, SSD %v, HDD %v not strictly ordered", n, dram, ssd, hdd)
		}
	}
}

func TestTransferTimeBatched(t *testing.T) {
	d := Device{Name: "x", Latency: 16 * time.Millisecond, Bandwidth: 1e6}
	// Batch of 16 amortizes latency to 1ms; bandwidth term unchanged.
	got := d.TransferTimeBatched(1e6, 16)
	want := time.Millisecond + time.Second
	if got != want {
		t.Errorf("batched = %v, want %v", got, want)
	}
	// Batch 1 equals the plain transfer time.
	if a, b := d.TransferTimeBatched(500, 1), d.TransferTime(500); a != b {
		t.Errorf("batch=1 %v != unbatched %v", a, b)
	}
	// Batch < 1 is clamped to 1.
	if a, b := d.TransferTimeBatched(500, 0), d.TransferTime(500); a != b {
		t.Errorf("batch=0 %v != unbatched %v", a, b)
	}
	// Zero-bandwidth devices pay only the amortized latency.
	z := Device{Latency: 8 * time.Millisecond}
	if got := z.TransferTimeBatched(1<<20, 8); got != time.Millisecond {
		t.Errorf("zero-bw batched = %v", got)
	}
}

func TestTransferTimeBatchedPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative size did not panic")
		}
	}()
	HDD().TransferTimeBatched(-1, 4)
}

func TestBatchedAlwaysCheaper(t *testing.T) {
	// Batched reads are never slower than synchronous ones.
	d := HDD()
	for _, n := range []int64{0, 1 << 10, 1 << 20} {
		for _, batch := range []int{2, 8, 64} {
			if d.TransferTimeBatched(n, batch) > d.TransferTime(n) {
				t.Errorf("batched slower for n=%d batch=%d", n, batch)
			}
		}
	}
}

func TestDeviceString(t *testing.T) {
	s := SSD().String()
	if s == "" {
		t.Error("empty String")
	}
}

// Property: transfer time is monotone non-decreasing in size.
func TestTransferMonotoneProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		d := HDD()
		return d.TransferTime(x) <= d.TransferTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
