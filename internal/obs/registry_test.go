package obs

import (
	"strings"
	"testing"
	"time"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	reqs := r.NewCounter("impir_requests_total", "Requests by frame.", "frame")
	depth := r.NewGauge("impir_queue_depth", "Current queue depth.")
	lat := r.NewHistogram("impir_latency_seconds", "Latency.", nil, "frame")

	reqs.With("query").Add(3)
	reqs.With("batch").Inc()
	depth.With().Set(7)
	lat.With("query").Observe(5 * time.Microsecond)
	lat.With("query").Observe(3 * time.Millisecond)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	for _, want := range []string{
		"# HELP impir_requests_total Requests by frame.",
		"# TYPE impir_requests_total counter",
		`impir_requests_total{frame="query"} 3`,
		`impir_requests_total{frame="batch"} 1`,
		"# TYPE impir_queue_depth gauge",
		"impir_queue_depth 7",
		"# TYPE impir_latency_seconds histogram",
		`impir_latency_seconds_bucket{frame="query",le="+Inf"} 2`,
		`impir_latency_seconds_count{frame="query"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}

	// Series order is creation order: query registered before batch.
	if strings.Index(text, `frame="query"} 3`) > strings.Index(text, `frame="batch"} 1`) {
		t.Error("series not in creation order")
	}

	// The exposition round-trips through ParseText.
	samples, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if samples[`impir_requests_total{frame="query"}`] != 3 {
		t.Errorf("parsed query counter = %v", samples[`impir_requests_total{frame="query"}`])
	}
	if samples["impir_queue_depth"] != 7 {
		t.Errorf("parsed gauge = %v", samples["impir_queue_depth"])
	}
	if samples[`impir_latency_seconds_count{frame="query"}`] != 2 {
		t.Errorf("parsed histogram count = %v", samples[`impir_latency_seconds_count{frame="query"}`])
	}
}

// TestHistogramBucketsCumulative: le buckets must be non-decreasing,
// every observation below an edge counted by it, and +Inf equal to the
// total count — the invariants a Prometheus scraper assumes.
func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	lat := r.NewHistogram("h_seconds", "h", nil)
	obs := []time.Duration{
		500 * time.Nanosecond, // records as ~1µs
		1 * time.Microsecond,
		100 * time.Microsecond,
		3 * time.Millisecond,
		900 * time.Millisecond,
		80 * time.Second, // clamps into the top bucket
	}
	for _, d := range obs {
		lat.With().Observe(d)
	}

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}

	edges := LatencyEdges()
	prev := -1.0
	for _, e := range edges {
		le := formatLe(e)
		v, ok := samples[`h_seconds_bucket{le="`+le+`"}`]
		if !ok {
			t.Fatalf("missing bucket le=%s in:\n%s", le, sb.String())
		}
		if v < prev {
			t.Errorf("bucket le=%s count %v < previous %v (not cumulative)", le, v, prev)
		}
		prev = v
		// Independent check: count observations with recorded value ≤ edge.
		var manual float64
		for _, d := range obs {
			u := int64(d / histUnit)
			rep := time.Duration(histValue(histIndex(u))) * histUnit
			if rep <= e {
				manual++
			}
		}
		if v != manual {
			t.Errorf("bucket le=%s = %v, manual recount %v", le, v, manual)
		}
	}
	if inf := samples[`h_seconds_bucket{le="+Inf"}`]; inf != float64(len(obs)) {
		t.Errorf("+Inf bucket = %v, want %d", inf, len(obs))
	}
	if c := samples["h_seconds_count"]; c != float64(len(obs)) {
		t.Errorf("count = %v, want %d", c, len(obs))
	}
	if s := samples["h_seconds_sum"]; s <= 0 {
		t.Errorf("sum = %v, want > 0", s)
	}
}

func formatLe(d time.Duration) string {
	var sb strings.Builder
	r := NewRegistry()
	h := r.NewHistogram("x_seconds", "x", []time.Duration{d})
	h.With().Observe(0)
	if err := r.WriteText(&sb); err != nil {
		panic(err)
	}
	// Extract the le value from the single bucket line.
	text := sb.String()
	i := strings.Index(text, `le="`)
	j := strings.Index(text[i+4:], `"`)
	return text[i+4 : i+4+j]
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "c", "path")
	c.With(`a"b\c` + "\n").Inc()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `c_total{path="a\"b\\c\n"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Errorf("escaped label missing; got:\n%s", sb.String())
	}
}

// TestWithLongLabelValues: label values too long for With's stack key
// still find the one series they name.
func TestWithLongLabelValues(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "c", "a", "b")
	long := strings.Repeat("x", 70)
	c.With(long, "y").Inc()
	c.With(long, "y").Inc()
	if c.With(long, "z") == c.With(long, "y") {
		t.Fatal("distinct label values share a series")
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if want := `c_total{a="` + long + `",b="y"} 2`; !strings.Contains(sb.String(), want) {
		t.Errorf("exposition lacks %s:\n%s", want, sb.String())
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "d")
	for name, fn := range map[string]func(){
		"duplicate name":    func() { r.NewCounter("dup_total", "d") },
		"bad metric name":   func() { r.NewCounter("bad-name", "d") },
		"bad label name":    func() { r.NewCounter("ok_total", "d", "le-gal") },
		"wrong label arity": func() { r.NewCounter("arity_total", "d", "a").With("x", "y") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestOnScrapeMirrors(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("m_depth", "read at scrape time")
	var source int64 = 41
	r.OnScrape(func() { g.With().Set(source) })
	source = 42
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "m_depth 42") {
		t.Errorf("scrape hook did not run before render:\n%s", sb.String())
	}
}
