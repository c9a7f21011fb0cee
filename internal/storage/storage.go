// Package storage models the memory/storage devices of the paper's testbed
// (16 GB DRAM, 512 GB SSD, 3 TB HDD) as latency + bandwidth cost models. The
// experiments measure simulated time, so runs are deterministic and
// independent of the host machine.
package storage

import (
	"fmt"
	"time"
)

// Device is a storage or memory device cost model: a fixed per-operation
// latency plus size-proportional transfer time.
type Device struct {
	Name      string
	Latency   time.Duration // per read operation
	Bandwidth float64       // bytes per second
}

// TransferTime returns the simulated time to read n bytes from the device.
// Zero-byte reads still pay the operation latency.
func (d Device) TransferTime(n int64) time.Duration {
	if n < 0 {
		panic(fmt.Sprintf("storage: negative transfer size %d", n))
	}
	if d.Bandwidth <= 0 {
		return d.Latency
	}
	return d.Latency + time.Duration(float64(n)/d.Bandwidth*float64(time.Second))
}

// TransferTimeBatched returns the simulated time to read n bytes as part of
// a batch of `batch` reads issued together: the per-operation latency (seek,
// setup) is amortized across the batch while the bandwidth term is
// unchanged. Prefetchers issue blocks in large asynchronous elevator-order
// batches, unlike demand misses, which are synchronous random reads paying
// the full latency. batch < 1 is treated as 1.
func (d Device) TransferTimeBatched(n int64, batch int) time.Duration {
	if batch < 1 {
		batch = 1
	}
	if n < 0 {
		panic(fmt.Sprintf("storage: negative transfer size %d", n))
	}
	lat := d.Latency / time.Duration(batch)
	if d.Bandwidth <= 0 {
		return lat
	}
	return lat + time.Duration(float64(n)/d.Bandwidth*float64(time.Second))
}

// String implements fmt.Stringer.
func (d Device) String() string {
	return fmt.Sprintf("%s(lat=%v, bw=%.0fMB/s)", d.Name, d.Latency, d.Bandwidth/1e6)
}

// DRAM returns a main-memory device model (the paper's 16 GB DRAM level).
func DRAM() Device {
	return Device{Name: "DRAM", Latency: 100 * time.Nanosecond, Bandwidth: 10e9}
}

// SSD returns a solid-state drive model (the paper's 512 GB SSD level).
func SSD() Device {
	return Device{Name: "SSD", Latency: 80 * time.Microsecond, Bandwidth: 500e6}
}

// HDD returns a hard-disk model (the paper's 3 TB HDD backing store).
func HDD() Device {
	return Device{Name: "HDD", Latency: 8 * time.Millisecond, Bandwidth: 150e6}
}
