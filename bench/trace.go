package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Span names. A span is recorded by the harness around a call into a layer;
// nothing inside the program under test is instrumented.
type spanName uint8

const (
	spFrame spanName = iota
	spVisibleSet
	spOOCFrame
	spTierRead
	spClientRead
	spSendView
	spFileRead     // a batch read of the block file: the demand path
	spFilePrefetch // a single-block read: MemCache.Prefetch and retries
	spTierPut
	spFSRead  // open, read and close of a spill file
	spFSWrite // create, write, sync, close, rename and remove
	spSimGoto
	spServerRoot
	spBackgroundRoot
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spFrame:          "frame",
	spVisibleSet:     "visibility.visible_set",
	spOOCFrame:       "ooc.frame",
	spTierRead:       "tier.read",
	spClientRead:     "blocksvc.client.read",
	spSendView:       "blocksvc.client.send_view",
	spFileRead:       "store.blockfile.read",
	spFilePrefetch:   "store.blockfile.prefetch_read",
	spTierPut:        "tier.put",
	spFSRead:         "tier.fs.read",
	spFSWrite:        "tier.fs.write",
	spSimGoto:        "sim.goto",
	spServerRoot:     "server",
	spBackgroundRoot: "background",
}

const noSpan = int32(-1)

// span is one timed interval. Parent is the span that caused it and Frame the
// view point it belongs to; work that no frame waits for (prefetch, spill
// writes, the server's reads — the wire carries no parent) has Frame -1 and
// hangs under one of the two root spans.
type span struct {
	Name       spanName
	Parent     int32
	Frame      int32
	Start, End int64 // ns since the tracer's epoch
}

// tracer keeps spans in a slice sized once, so recording one is an atomic
// add and two clock reads, and nothing is written out until the run ends. The
// slice is mapped outside the Go heap: a hundred megabytes of live heap would
// halve the collector's work in the traced run and make it faster than the
// untraced one. A nil *tracer records nothing; every method is safe to call
// on it.
type tracer struct {
	epoch   time.Time
	mem     []byte // the mapping spans lives in
	spans   []span
	next    atomic.Int32
	dropped atomic.Int64
	frames  atomic.Int32

	server, background int32
}

func newTracer(capacity int) (*tracer, error) {
	mem, err := syscall.Mmap(-1, 0, capacity*int(unsafe.Sizeof(span{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d spans: %w", capacity, err)
	}
	t := &tracer{epoch: time.Now(), mem: mem, spans: unsafe.Slice((*span)(unsafe.Pointer(&mem[0])), capacity)}
	t.server = t.begin(spServerRoot, noSpan, -1)
	t.background = t.begin(spBackgroundRoot, noSpan, -1)
	return t, nil
}

// release unmaps the spans; slices returned by recorded die with it.
func (t *tracer) release() error {
	t.spans = nil
	return syscall.Munmap(t.mem)
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name spanName, parent, frame int32) int32 {
	if t == nil {
		return noSpan
	}
	i := t.next.Add(1) - 1
	if int(i) >= len(t.spans) {
		t.dropped.Add(1)
		return noSpan
	}
	t.spans[i] = span{Name: name, Parent: parent, Frame: frame, Start: t.now()}
	return i
}

func (t *tracer) end(i int32) {
	if t == nil || i == noSpan {
		return
	}
	t.spans[i].End = t.now()
}

// newFrame hands out frame ids that are unique across sessions.
func (t *tracer) newFrame() int32 {
	if t == nil {
		return -1
	}
	return t.frames.Add(1) - 1
}

// recorded returns the spans written so far, closing the two roots. Call it
// only after every goroutine that records has stopped.
func (t *tracer) recorded() []span {
	t.end(t.server)
	t.end(t.background)
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// spanRef travels in the context the harness hands to ooc.Frame. It reaches
// the reader wrappers unchanged through MemCache.GetBatch and the retrier,
// which is how a read deep in the stack finds the frame that waits for it.
type spanRef struct{ frame, span int32 }

type spanKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	return ref, ok
}

type interval struct{ lo, hi int64 }

// unionLen returns the total length covered by the intervals, counting
// overlaps once. It sorts iv in place.
func unionLen(iv []interval) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a].lo < iv[b].lo })
	var total int64
	end := int64(-1 << 62)
	for _, x := range iv {
		if x.hi <= end {
			continue
		}
		if x.lo > end {
			total += x.hi - x.lo
		} else {
			total += x.hi - end
		}
		end = x.hi
	}
	return total
}

// layerTimes is what the spans of one run add up to, by span name.
type layerTimes struct {
	self  [numSpanNames]int64 // time in the layer itself, see selfTimes
	total [numSpanNames]int64 // sum of span durations
	count [numSpanNames]int64
}

// selfTimes attributes time to layers. Within one frame a layer's self time
// is the union of its spans minus the union of their children's spans: demand
// chunks run in parallel, so two overlapping reads of one layer are counted
// once, and a parent is charged only for the part of its interval in which no
// child was running. Spans outside any frame only add to total and count.
// Spans before index from (set-up and warm-up) are left out.
func selfTimes(spans []span, from int) layerTimes {
	type key struct {
		frame int32
		name  spanName
	}
	own := map[key][]interval{}
	kids := map[key][]interval{}
	var lt layerTimes
	for _, s := range spans[from:] {
		if s.End == 0 {
			continue // never closed: the run ended under it
		}
		lt.total[s.Name] += s.End - s.Start
		lt.count[s.Name]++
		if s.Frame < 0 {
			continue
		}
		iv := interval{s.Start, s.End}
		own[key{s.Frame, s.Name}] = append(own[key{s.Frame, s.Name}], iv)
		if s.Parent != noSpan {
			k := key{s.Frame, spans[s.Parent].Name}
			kids[k] = append(kids[k], iv)
		}
	}
	for k, iv := range own {
		self := unionLen(iv) - unionLen(kids[k])
		if self > 0 {
			lt.self[k.name] += self
		}
	}
	return lt
}

// coverage is the share of frame time the spans below the frame account for:
// the layers' self times over the frames' durations. What is missing is time
// the harness itself spent between the calls.
func (lt *layerTimes) coverage() float64 {
	var layers int64
	for n := spanName(0); n < numSpanNames; n++ {
		if n != spFrame {
			layers += lt.self[n]
		}
	}
	return ratio(float64(layers), float64(lt.total[spFrame]))
}

// writeTrace writes the spans as JSON: name, start, end, parent, frame id.
func writeTrace(path string, spans []span) error {
	type out struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		Frame  int32  `json:"frame"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	w.WriteString("[")
	for i, s := range spans {
		if i > 0 {
			w.WriteString(",")
		}
		if err = enc.Encode(out{spanNames[s.Name], s.Start, s.End, s.Parent, s.Frame}); err != nil {
			break
		}
	}
	w.WriteString("]\n")
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
