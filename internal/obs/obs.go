// Package obs is the engine-wide observability layer: a typed metrics
// registry (counters, gauges, histograms, per-worker sharded counters)
// plus an epoch trace recorder (trace.go), built so that instrumentation
// is ZERO-COST WHEN DISABLED and lock-free on the hot path when enabled.
//
// Disabled means a nil *Registry (or nil *Tracer): every constructor and
// every instrument operation is nil-safe, so instrumented code calls
// instruments unconditionally and a disabled run pays exactly one pointer
// compare per call site — no allocations, no atomics, no branches beyond
// the nil check. internal/engine pins this with an allocation test: the
// steady-state epoch hot path allocates no more with the obs layer
// compiled in than it did before it existed.
//
// Enabled instruments use dense-slice storage: all counter values live in
// one []int64 on the registry (likewise gauges and histogram buckets), and
// an instrument handle is a value type holding the registry pointer plus a
// slot index — creating or passing handles never allocates. Counter, Gauge
// and Histogram writes are single atomic operations, so a live
// introspection endpoint (expvar, /metricz) can Snapshot the registry
// while the engine is mid-epoch without locks or races. ShardedCounter is
// the hot-path variant for parallel sections: each worker owns a
// cache-line-padded shard it bumps with plain stores (no atomics, no
// sharing), and the scheduler folds the shards into the published total at
// the epoch barrier, once the workers have been waited for.
//
// Determinism: the registry observes execution (byte counters sampled from
// sim metrics, wall-clock phase timings); it never feeds randomness or
// scheduling decisions back into a run, so enabling or disabling
// observability cannot change simulated output, and wall-clock readings
// stay out of every determinism checksum.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// shardStride spaces shard slots a cache line apart (8 int64s = 64 bytes)
// so workers bumping adjacent shards never contend on one line.
const shardStride = 8

// Registry holds every registered instrument and its current value.
// Instruments are registered up front (before any concurrent use) and live
// for the registry's lifetime; values are written with atomic operations
// so Snapshot is safe from any goroutine at any time.
//
// A nil *Registry is the disabled layer: constructors return zero handles
// whose operations are no-ops.
type Registry struct {
	mu sync.Mutex
	// byName maps an instrument name to its kind+slot, for idempotent
	// registration and Snapshot lookups.
	byName map[string]slot

	counterNames []string
	counterVals  []int64 // atomic

	gaugeNames []string
	gaugeVals  []int64 // atomic

	histNames  []string
	histBounds [][]int64
	hists      []*histData

	shardedNames []string
	shardedVals  [][]int64 // per instrument: shards*shardStride plain slots
	shardedTotal []int64   // atomic; published by ShardedCounter.Flush
}

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindSharded
)

type slot struct {
	kind kind
	idx  int32
}

// histData is one histogram's storage: bucket counts for values <=
// bounds[i] (last bucket is the overflow), plus count/sum/min/max. All
// fields are atomics.
type histData struct {
	buckets []int64
	count   int64
	sum     int64
	min     int64 // initialized to MaxInt64
	max     int64 // initialized to MinInt64
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]slot{}}
}

// Enabled reports whether the registry collects (false for nil).
func (r *Registry) Enabled() bool { return r != nil }

// register resolves name to a slot, creating it with mk when new. It
// panics when the name is already registered with a different kind.
func (r *Registry) register(name string, k kind, mk func() int32) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byName[name]; ok {
		if s.kind != k {
			panic(fmt.Sprintf("obs: instrument %q re-registered with a different kind", name))
		}
		return s.idx
	}
	idx := mk()
	r.byName[name] = slot{kind: k, idx: idx}
	return idx
}

// Counter registers (or finds) a monotonically increasing counter.
// Registration on a nil registry returns a disabled handle.
func (r *Registry) Counter(name string) Counter {
	if r == nil {
		return Counter{}
	}
	idx := r.register(name, kindCounter, func() int32 {
		r.counterNames = append(r.counterNames, name)
		r.counterVals = append(r.counterVals, 0)
		return int32(len(r.counterVals) - 1)
	})
	return Counter{r: r, i: idx}
}

// Gauge registers (or finds) a last-value-wins gauge.
func (r *Registry) Gauge(name string) Gauge {
	if r == nil {
		return Gauge{}
	}
	idx := r.register(name, kindGauge, func() int32 {
		r.gaugeNames = append(r.gaugeNames, name)
		r.gaugeVals = append(r.gaugeVals, 0)
		return int32(len(r.gaugeVals) - 1)
	})
	return Gauge{r: r, i: idx}
}

// Histogram registers (or finds) a histogram with the given ascending
// bucket bounds (values land in the first bucket whose bound is >= value;
// one extra overflow bucket catches the rest). Bounds are fixed at first
// registration.
func (r *Registry) Histogram(name string, bounds []int64) Histogram {
	if r == nil {
		return Histogram{}
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	idx := r.register(name, kindHistogram, func() int32 {
		b := append([]int64(nil), bounds...)
		r.histNames = append(r.histNames, name)
		r.histBounds = append(r.histBounds, b)
		r.hists = append(r.hists, &histData{
			buckets: make([]int64, len(b)+1),
			min:     math.MaxInt64,
			max:     math.MinInt64,
		})
		return int32(len(r.hists) - 1)
	})
	return Histogram{r: r, i: idx}
}

// ShardedCounter registers (or finds) a counter with `shards` independent
// hot-path accumulation slots. Workers bump their own shard with plain
// (non-atomic) adds — safe because each shard is owned by exactly one
// goroutine between flushes — and a sequential section publishes the sum
// with Flush. Snapshot reads only the published total.
func (r *Registry) ShardedCounter(name string, shards int) ShardedCounter {
	if r == nil {
		return ShardedCounter{}
	}
	if shards < 1 {
		shards = 1
	}
	idx := r.register(name, kindSharded, func() int32 {
		r.shardedNames = append(r.shardedNames, name)
		r.shardedVals = append(r.shardedVals, make([]int64, shards*shardStride))
		r.shardedTotal = append(r.shardedTotal, 0)
		return int32(len(r.shardedTotal) - 1)
	})
	sc := ShardedCounter{r: r, i: idx}
	if got := len(r.shardedVals[idx]) / shardStride; got < shards {
		// Re-registration with more shards grows the slot array (holding
		// the lock; no hot path runs during registration).
		r.mu.Lock()
		r.shardedVals[idx] = append(r.shardedVals[idx], make([]int64, (shards-got)*shardStride)...)
		r.mu.Unlock()
	}
	return sc
}

// Counter is a monotonically increasing instrument. The zero value is
// disabled. Add is one atomic add: safe from any goroutine.
type Counter struct {
	r *Registry
	i int32
}

// Add increments the counter by n (no-op when disabled).
func (c Counter) Add(n int64) {
	if c.r == nil {
		return
	}
	atomic.AddInt64(&c.r.counterVals[c.i], n)
}

// Inc increments the counter by one.
func (c Counter) Inc() { c.Add(1) }

// Value returns the current count (0 when disabled).
func (c Counter) Value() int64 {
	if c.r == nil {
		return 0
	}
	return atomic.LoadInt64(&c.r.counterVals[c.i])
}

// Gauge is a last-value-wins instrument. The zero value is disabled.
type Gauge struct {
	r *Registry
	i int32
}

// Set records the current value (no-op when disabled).
func (g Gauge) Set(v int64) {
	if g.r == nil {
		return
	}
	atomic.StoreInt64(&g.r.gaugeVals[g.i], v)
}

// Value returns the last set value (0 when disabled).
func (g Gauge) Value() int64 {
	if g.r == nil {
		return 0
	}
	return atomic.LoadInt64(&g.r.gaugeVals[g.i])
}

// Histogram is a fixed-bucket distribution instrument. The zero value is
// disabled. Observe is a handful of atomic operations — no allocation.
type Histogram struct {
	r *Registry
	i int32
}

// Observe records one value (no-op when disabled).
func (h Histogram) Observe(v int64) {
	if h.r == nil {
		return
	}
	d := h.r.hists[h.i]
	bounds := h.r.histBounds[h.i]
	// Binary search the bucket: first bound >= v, overflow past the end.
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	atomic.AddInt64(&d.buckets[lo], 1)
	atomic.AddInt64(&d.count, 1)
	atomic.AddInt64(&d.sum, v)
	for {
		cur := atomic.LoadInt64(&d.min)
		if v >= cur || atomic.CompareAndSwapInt64(&d.min, cur, v) {
			break
		}
	}
	for {
		cur := atomic.LoadInt64(&d.max)
		if v <= cur || atomic.CompareAndSwapInt64(&d.max, cur, v) {
			break
		}
	}
}

// ShardedCounter is the hot-path counter: per-worker shards written with
// plain stores, folded into the published total at a barrier. The zero
// value is disabled.
type ShardedCounter struct {
	r *Registry
	i int32
}

// Add accumulates n into the given shard with a plain add. The caller
// guarantees each shard is owned by one goroutine between flushes (the
// engine hands worker w shard w). No-op when disabled; out-of-range
// shards fold into shard 0 rather than racing.
func (s ShardedCounter) Add(shard int, n int64) {
	if s.r == nil {
		return
	}
	vals := s.r.shardedVals[s.i]
	off := shard * shardStride
	if off < 0 || off >= len(vals) {
		off = 0
	}
	vals[off] += n
}

// Flush folds every shard into the published total and zeroes the shards.
// Call from a sequential section (the epoch barrier, after the wait on
// the workers that orders their plain stores first) — it reads shard
// slots with plain loads.
func (s ShardedCounter) Flush() {
	if s.r == nil {
		return
	}
	vals := s.r.shardedVals[s.i]
	var sum int64
	for off := 0; off < len(vals); off += shardStride {
		sum += vals[off]
		vals[off] = 0
	}
	if sum != 0 {
		atomic.AddInt64(&s.r.shardedTotal[s.i], sum)
	}
}

// Value returns the published (flushed) total.
func (s ShardedCounter) Value() int64 {
	if s.r == nil {
		return 0
	}
	return atomic.LoadInt64(&s.r.shardedTotal[s.i])
}

// DurationBoundsUS is the default histogram bucketing for wall-clock
// durations in microseconds: a 1-2-5 series from 1µs to 10s.
func DurationBoundsUS() []int64 {
	return series125(1, 10_000_000)
}

// SizeBounds is the default histogram bucketing for sizes (tuples, bytes):
// a 1-2-5 series from 1 to 10M.
func SizeBounds() []int64 {
	return series125(1, 10_000_000)
}

// series125 builds the ascending 1-2-5 decade series in [lo, hi].
func series125(lo, hi int64) []int64 {
	var out []int64
	for base := lo; base <= hi; base *= 10 {
		for _, m := range []int64{1, 2, 5} {
			if v := base * m; v <= hi {
				out = append(out, v)
			}
		}
	}
	return out
}

// Metric is one counter or gauge reading in a Snapshot.
type Metric struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramMetric is one histogram's state in a Snapshot.
type HistogramMetric struct {
	Name string `json:"name"`
	// Bounds are the ascending bucket upper bounds; Counts has one entry
	// per bound plus a final overflow bucket.
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	// Min/Max are 0 when the histogram has no observations.
	Min int64 `json:"min"`
	Max int64 `json:"max"`
}

// Mean returns the average observation (0 when empty).
func (h HistogramMetric) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is a point-in-time copy of every instrument, sorted by name —
// the unit the live endpoints (expvar JSON, /metricz text) serialize.
type Snapshot struct {
	Counters   []Metric          `json:"counters"`
	Gauges     []Metric          `json:"gauges"`
	Histograms []HistogramMetric `json:"histograms"`
}

// Snapshot copies the registry's current values. Safe concurrently with
// instrument writes (atomic loads; a snapshot mid-epoch sees a consistent
// prefix of each instrument, not a torn value). Returns an empty snapshot
// on a nil registry. Sharded counters appear among Counters at their last
// flushed total.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, name := range r.counterNames {
		s.Counters = append(s.Counters, Metric{Name: name, Value: atomic.LoadInt64(&r.counterVals[i])})
	}
	for i, name := range r.shardedNames {
		s.Counters = append(s.Counters, Metric{Name: name, Value: atomic.LoadInt64(&r.shardedTotal[i])})
	}
	for i, name := range r.gaugeNames {
		s.Gauges = append(s.Gauges, Metric{Name: name, Value: atomic.LoadInt64(&r.gaugeVals[i])})
	}
	for i, name := range r.histNames {
		d := r.hists[i]
		hm := HistogramMetric{
			Name:   name,
			Bounds: append([]int64(nil), r.histBounds[i]...),
			Counts: make([]int64, len(d.buckets)),
			Count:  atomic.LoadInt64(&d.count),
			Sum:    atomic.LoadInt64(&d.sum),
		}
		for b := range d.buckets {
			hm.Counts[b] = atomic.LoadInt64(&d.buckets[b])
		}
		if hm.Count > 0 {
			hm.Min = atomic.LoadInt64(&d.min)
			hm.Max = atomic.LoadInt64(&d.max)
		}
		s.Histograms = append(s.Histograms, hm)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Value looks a counter or gauge up by name.
func (s Snapshot) Value(name string) (int64, bool) {
	for _, m := range s.Counters {
		if m.Name == name {
			return m.Value, true
		}
	}
	for _, m := range s.Gauges {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// WriteText renders the snapshot as a /metricz-style text dump: one
// "name value" line per counter and gauge, one summary line per histogram.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, m := range s.Counters {
		if _, err := fmt.Fprintf(w, "counter %-40s %d\n", m.Name, m.Value); err != nil {
			return err
		}
	}
	for _, m := range s.Gauges {
		if _, err := fmt.Fprintf(w, "gauge   %-40s %d\n", m.Name, m.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if _, err := fmt.Fprintf(w, "hist    %-40s count=%d sum=%d min=%d max=%d mean=%.1f\n",
			h.Name, h.Count, h.Sum, h.Min, h.Max, h.Mean()); err != nil {
			return err
		}
	}
	return nil
}
