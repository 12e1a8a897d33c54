package obs

import (
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestHistIndexMonotone: the bucket index must be monotone in the value
// and every bucket's representative must bound the values mapped to it
// from above (quantiles never under-report).
func TestHistIndexMonotone(t *testing.T) {
	prev := -1
	for u := int64(0); u < 1<<20; u = u*5/4 + 1 {
		idx := histIndex(u)
		if idx < prev {
			t.Fatalf("histIndex(%d) = %d < previous %d", u, idx, prev)
		}
		if idx >= histLen {
			t.Fatalf("histIndex(%d) = %d out of range", u, idx)
		}
		if rep := histValue(idx); rep < u {
			t.Fatalf("histValue(%d) = %d under-reports value %d", idx, rep, u)
		}
		prev = idx
	}
	// The relative error of the representative stays bounded by the
	// sub-bucket resolution.
	for _, u := range []int64{100, 1000, 10_000, 100_000, 1_000_000} {
		rep := histValue(histIndex(u))
		if float64(rep-u) > float64(u)/(histSubBuckets/2) {
			t.Errorf("value %d maps to representative %d: relative error too big", u, rep)
		}
	}
	// Values past the top octave clamp instead of overflowing.
	if idx := histIndex(1 << 40); idx != histLen-1 {
		t.Errorf("huge value mapped to %d, want top bucket %d", idx, histLen-1)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h Hist
	// 1000 observations: 1ms, 2ms, ..., 1000ms.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	check := func(q float64, want time.Duration) {
		t.Helper()
		got := s.Quantile(q)
		// Histogram resolution: within one sub-bucket of the true value.
		if got < want || float64(got-want) > float64(want)/(histSubBuckets/2)+float64(histUnit) {
			t.Errorf("Quantile(%v) = %v, want ≈%v (never below)", q, got, want)
		}
	}
	check(0.50, 500*time.Millisecond)
	check(0.90, 900*time.Millisecond)
	check(0.99, 990*time.Millisecond)
	if s.Max != 1000*time.Millisecond {
		t.Errorf("Max = %v", s.Max)
	}
	mean := s.Mean()
	if mean < 495*time.Millisecond || mean > 506*time.Millisecond {
		t.Errorf("Mean = %v, want ≈500ms", mean)
	}

	// An interval delta holds exactly the observations between snapshots.
	for i := 0; i < 100; i++ {
		h.Record(5 * time.Second)
	}
	d := h.Snapshot().Sub(s)
	if d.Count != 100 {
		t.Errorf("delta count = %d, want 100", d.Count)
	}
	if q := d.Quantile(0.5); q < 5*time.Second {
		t.Errorf("delta median %v under-reports the 5s burst", q)
	}
}

// TestHistTopOctave: a value in the octave above 2^26µs lands in its
// own sub-bucket, so its quantile reads within one sub-bucket of it,
// and only values past the last bucket clamp.
func TestHistTopOctave(t *testing.T) {
	var h Hist
	h.Record(70 * time.Second)
	want := 70 * time.Second
	if got := h.Snapshot().Quantile(0.5); got < want || got > want+want/histSubBuckets {
		t.Fatalf("p50 of one 70s observation = %v, want within 1/%d above %v", got, histSubBuckets, want)
	}
	if idx := histIndex(1<<27 - 1); idx != histLen-1 {
		t.Errorf("histIndex(2^27-1) = %d, want the last bucket %d", idx, histLen-1)
	}
	if idx := histIndex(1 << 26); idx != histLen-histSubBuckets {
		t.Errorf("histIndex(2^26) = %d, want the top octave's first bucket %d", idx, histLen-histSubBuckets)
	}
}

func TestHistEmpty(t *testing.T) {
	var h Hist
	s := h.Snapshot()
	if s.Quantile(0.99) != 0 || s.Mean() != 0 || s.Count != 0 {
		t.Errorf("empty histogram not zero: %+v", s)
	}
}

// TestHistCumulative: the cumulative walk visits every non-empty bucket
// in ascending representative order and its counts sum to Count — the
// invariant the Prometheus exposition's le buckets are built on.
func TestHistCumulative(t *testing.T) {
	var h Hist
	for _, d := range []time.Duration{
		3 * time.Microsecond, 3 * time.Microsecond, 900 * time.Microsecond,
		12 * time.Millisecond, 7 * time.Second,
	} {
		h.Record(d)
	}
	s := h.Snapshot()
	var (
		total    uint64
		prevEdge = int64(-1)
	)
	s.cumulative(func(edge int64, count uint64) {
		if edge <= prevEdge {
			t.Fatalf("cumulative edge %d not increasing past %d", edge, prevEdge)
		}
		prevEdge = edge
		total += count
	})
	if total != s.Count {
		t.Fatalf("cumulative total %d != count %d", total, s.Count)
	}
}

// TestHistFirstRecordsRace: goroutines make the first records of every
// chunk of a fresh Hist at once. The snapshot must equal a serial
// oracle bucket for bucket, so no count is lost to a chunk that lost
// its compare-and-swap. An empty Hist stays far smaller than its
// histLen buckets.
func TestHistFirstRecordsRace(t *testing.T) {
	if size := unsafe.Sizeof(Hist{}); size > 256 {
		t.Fatalf("an empty Hist takes %d B, want ≤ 256", size)
	}
	// Every goroutine records every bucket's upper edge once, starting
	// at a different chunk, so each chunk sees racing first records
	// (values past the top octave clamp into the last chunk).
	const workers = 8
	var values []time.Duration
	for i := 0; i < histLen; i++ {
		values = append(values, time.Duration(histValue(i))*histUnit)
	}
	var oracle Hist
	for w := 0; w < workers; w++ {
		for _, v := range values {
			oracle.Record(v)
		}
	}
	want := oracle.Snapshot()
	for k := range oracle.chunks {
		if oracle.chunks[k].Load() == nil {
			t.Fatalf("no value reached chunk %d", k)
		}
	}
	for round := 0; round < 20; round++ {
		var h Hist
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				off := w * histLen / workers
				for i := range values {
					h.Record(values[(off+i)%histLen])
				}
			}(w)
		}
		close(start)
		wg.Wait()
		if got := h.Snapshot(); got != want {
			for i := range got.counts {
				if got.counts[i] != want.counts[i] {
					t.Errorf("bucket %d: %d, want %d", i, got.counts[i], want.counts[i])
				}
			}
			t.Fatalf("round %d: count %d sum %v max %v, want %d %v %v",
				round, got.Count, got.Sum, got.Max, want.Count, want.Sum, want.Max)
		}
	}
}
