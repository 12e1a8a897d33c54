// Package obs is the operability layer: a zero-dependency (stdlib-only)
// Prometheus text-exposition metrics registry, the admin HTTP endpoint
// serving /metrics, /healthz and /readyz, the shared HDR-style latency
// histogram (one implementation behind both the load generator's
// quantiles and the server's exported latency histograms), and the
// span trees that trace one query on client and server — the server's
// ring and its slow-query log both render them.
//
// Everything here observes the PIR machinery from the outside: nothing
// in this package sees a query index, a key, or a selector share — only
// durations, counts and frame types, all of which the wire already
// reveals to the server by construction.
//
// Telemetry costs what it records. A histogram series is 200 B until
// its first observation and grows by one 256 B chunk per octave of
// latency it sees. A nil *Registry hands out detached cells that count
// but are never rendered, for components nobody scrapes. A TraceRing
// allocates its buffer on the first trace it keeps.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// HDR-style latency histogram: log2 major buckets, each split into
// linear sub-buckets, covering 1µs up to 2^27µs (~134s) with bounded
// relative error (≤ 1/histSubBuckets per recorded value); larger values
// clamp into the top bucket. Recording is an atomic
// add on one bucket — safe for every worker of the pool concurrently,
// no lock on the hot path — and Snapshot copies the counts out for
// quantile math and interval deltas. The buckets live in chunks of one
// octave, each allocated by the first value it records.
const (
	// histUnit is the recording resolution; everything below records as
	// one unit.
	histUnit = time.Microsecond
	// histSubBuckets is the linear resolution within one power of two.
	histSubBuckets = 32
	// histMaxOctave is the top octave boundary, 2^26 µs ≈ 67 s (the
	// exposition's highest edge). The buckets hold the octave above it
	// too: values below 2^27 µs ≈ 134 s get their own sub-bucket.
	histMaxOctave = 26
	// histLen: values < 2*histSubBuckets index directly; above that each
	// octave up to 2^(histMaxOctave+1) contributes histSubBuckets
	// buckets.
	histLen = 2*histSubBuckets + (histMaxOctave-subBucketBits)*histSubBuckets
	// subBucketBits is log2(histSubBuckets).
	subBucketBits = 5
	// histChunks is the number of octave chunks; the linear range below
	// 2*histSubBuckets takes the first two.
	histChunks = histLen / histSubBuckets
)

// histIndex maps a value in histUnits to its bucket; a value past the
// last bucket clamps into it.
func histIndex(u int64) int {
	if u < 2*histSubBuckets {
		return int(u)
	}
	m := bits.Len64(uint64(u)) // 2^(m-1) <= u < 2^m, m >= 7
	// Shift the value down so histSubBuckets..2*histSubBuckets-1 linear
	// positions remain within the octave.
	sub := u >> (m - subBucketBits - 1) // in [histSubBuckets, 2*histSubBuckets)
	idx := 2*histSubBuckets + (m-subBucketBits-2)*histSubBuckets + int(sub) - histSubBuckets
	if idx >= histLen {
		return histLen - 1
	}
	return idx
}

// histValue returns a representative value (in histUnits) for a bucket:
// the upper edge, so quantiles never under-report.
func histValue(idx int) int64 {
	if idx < 2*histSubBuckets {
		return int64(idx)
	}
	rel := idx - 2*histSubBuckets
	octave := rel / histSubBuckets // 0-based above the linear range
	sub := rel % histSubBuckets
	base := int64(histSubBuckets+sub) << (octave + 1)
	return base + (int64(1)<<(octave+1) - 1)
}

// Hist records latencies concurrently and lock-free. The zero value is
// empty and ready to use; it takes 200 B, plus 256 B for each octave
// chunk a record has reached.
type Hist struct {
	chunks [histChunks]atomic.Pointer[histChunk] // nil: nothing recorded there
	sum    atomic.Int64                          // histUnits
	max    atomic.Int64                          // histUnits
}

// histChunk is one octave's bucket counts.
type histChunk [histSubBuckets]atomic.Uint64

// Record adds one observation.
func (h *Hist) Record(d time.Duration) {
	u := int64(d / histUnit)
	if u < 0 {
		u = 0
	}
	i := histIndex(u)
	c := h.chunks[i/histSubBuckets].Load()
	if c == nil {
		c = h.chunk(i / histSubBuckets)
	}
	c[i%histSubBuckets].Add(1)
	h.sum.Add(u)
	for {
		cur := h.max.Load()
		if u <= cur || h.max.CompareAndSwap(cur, u) {
			break
		}
	}
}

// chunk installs chunk k on its first record. Of racing first records
// one chunk wins the compare-and-swap and every racer counts into it.
func (h *Hist) chunk(k int) *histChunk {
	h.chunks[k].CompareAndSwap(nil, new(histChunk))
	return h.chunks[k].Load()
}

// Snapshot copies the histogram state for quantile math. Concurrent
// recording keeps going; the snapshot is internally consistent enough
// for reporting (Sum and Max may run ahead of the counts by in-flight
// records).
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Max = time.Duration(h.max.Load()) * histUnit
	s.Sum = time.Duration(h.sum.Load()) * histUnit
	for k := range h.chunks {
		c := h.chunks[k].Load()
		if c == nil {
			continue
		}
		for j := range c {
			n := c[j].Load()
			s.counts[k*histSubBuckets+j] = n
			s.Count += n
		}
	}
	return s
}

// HistSnapshot is an immutable copy of a Hist.
type HistSnapshot struct {
	counts [histLen]uint64
	Count  uint64
	Sum    time.Duration
	Max    time.Duration
}

// Sub returns the observations recorded between prev and s (both
// snapshots of the same Hist, prev earlier). Max cannot be subtracted;
// the interval Max is approximated by the highest non-empty bucket.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	var d HistSnapshot
	d.Sum = s.Sum - prev.Sum
	for i := range s.counts {
		c := s.counts[i] - prev.counts[i]
		d.counts[i] = c
		d.Count += c
		if c > 0 {
			d.Max = time.Duration(histValue(i)) * histUnit
		}
	}
	return d
}

// Quantile returns the latency at quantile q in [0,1]. Zero when empty.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen uint64
	for i, c := range s.counts {
		seen += c
		if seen > rank {
			return time.Duration(histValue(i)) * histUnit
		}
	}
	return s.Max
}

// Mean returns the average recorded latency. Zero when empty.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// cumulative walks the snapshot's buckets in order, calling fn with
// each non-empty bucket's upper-edge representative (histUnits) and its
// count. The Prometheus exposition derives its cumulative le buckets
// from this walk, so the exported histogram and the quantile math agree
// on every bucket boundary.
func (s HistSnapshot) cumulative(fn func(upperEdge int64, count uint64)) {
	for i, c := range s.counts {
		if c > 0 {
			fn(histValue(i), c)
		}
	}
}
