package obs

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds metric families and renders them in the Prometheus
// text exposition format (version 0.0.4). It is deliberately small:
// counters, gauges and latency histograms with labels, deterministic
// output order (families in registration order, series in creation
// order), and scrape hooks that set point-in-time gauges.
// Registration is fallible only for programmer errors, which panic —
// metric declaration is init-time code, not a runtime path.
//
// A nil *Registry registers nothing: its families hand out a new
// detached cell on every With, counting like any other but held and
// rendered by no registry. Resolve such cells once and keep them.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]bool
	onScrape []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]bool)}
}

// OnScrape registers fn to run at the start of every exposition, before
// any family is rendered. Use it to read point-in-time gauges (queue
// depth, readiness).
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onScrape = append(r.onScrape, fn)
}

// family is one named metric with a fixed label arity and a series per
// distinct label-value tuple.
type family struct {
	name, help, typ string
	labelNames      []string

	mu     sync.Mutex // serialises adding a series
	order  []string
	series atomic.Pointer[map[string]any] // *Counter | *Gauge | *Histogram; copied on add
}

func (r *Registry) register(name, help, typ string, labelNames []string) *family {
	if !validMetricName(name) {
		panic("obs: invalid metric name " + name)
	}
	for _, l := range labelNames {
		if !validLabelName(l) {
			panic("obs: invalid label name " + l + " on " + name)
		}
	}
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[name] {
		panic("obs: duplicate metric " + name)
	}
	r.byName[name] = true
	f := &family{name: name, help: help, typ: typ, labelNames: labelNames}
	f.series.Store(&map[string]any{})
	r.families = append(r.families, f)
	return f
}

// with returns (creating on first use) the series for the given label
// values, preserving creation order for deterministic exposition. A nil
// family (registered on a nil Registry) returns a new detached series.
// Finding an existing series takes no lock and, for label values of up
// to 64 bytes in all, allocates nothing; adding one copies the family's
// map, which suits the few series a family holds.
func (f *family) with(labelValues []string, mk func() any) any {
	if f == nil {
		return mk()
	}
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: %s takes %d label values, got %d", f.name, len(f.labelNames), len(labelValues)))
	}
	var buf [64]byte
	key := buf[:0]
	for i, v := range labelValues {
		if i > 0 {
			key = append(key, '\xff')
		}
		key = append(key, v...)
	}
	if s, ok := (*f.series.Load())[string(key)]; ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	series := *f.series.Load()
	if s, ok := series[string(key)]; ok {
		return s
	}
	k, s := string(key), mk()
	series = maps.Clone(series)
	series[k] = s
	f.series.Store(&series)
	f.order = append(f.order, k)
	return s
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, c := range s {
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// Counter is a monotonically increasing series.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// CounterVec is a labelled counter family.
type CounterVec struct{ f *family }

// NewCounter registers a counter family with the given label names. A
// label-less counter has no label names and is addressed With().
func (r *Registry) NewCounter(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, "counter", labelNames)}
}

// With returns the series for the label values, creating it on first use.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.with(labelValues, func() any { return new(Counter) }).(*Counter)
}

// Gauge is a series that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores the current value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// GaugeVec is a labelled gauge family.
type GaugeVec struct{ f *family }

// NewGauge registers a gauge family with the given label names.
func (r *Registry) NewGauge(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, "gauge", labelNames)}
}

// With returns the series for the label values, creating it on first use.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.with(labelValues, func() any { return new(Gauge) }).(*Gauge)
}

// Histogram is a latency distribution backed by the shared HDR Hist —
// the same implementation the load generator computes quantiles from —
// exported as a Prometheus histogram whose le edges are drawn from the
// HDR bucket boundaries (exact cumulative counts, no re-binning error).
type Histogram struct {
	h     Hist
	edges []int64 // exposition upper bounds, histUnits, ascending
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) { h.h.Record(d) }

// HistogramVec is a labelled histogram family.
type HistogramVec struct {
	f     *family
	edges []int64
}

// LatencyEdges returns the default exposition bucket bounds for latency
// histograms: every power of two from 1µs to the HDR range's 2^26µs
// (~67s) ceiling. The bounds sit exactly on HDR octave boundaries, so
// each cumulative bucket is an exact count, not an interpolation.
func LatencyEdges() []time.Duration {
	out := make([]time.Duration, 0, histMaxOctave+1)
	for k := 0; k <= histMaxOctave; k++ {
		out = append(out, time.Duration(int64(1)<<k)*histUnit)
	}
	return out
}

// NewHistogram registers a histogram family. edges are the exposition
// upper bounds in ascending order; nil means LatencyEdges.
func (r *Registry) NewHistogram(name, help string, edges []time.Duration, labelNames ...string) *HistogramVec {
	if edges == nil {
		edges = LatencyEdges()
	}
	units := make([]int64, len(edges))
	for i, e := range edges {
		u := int64(e / histUnit)
		if i > 0 && u <= units[i-1] {
			panic("obs: histogram edges for " + name + " must be strictly ascending")
		}
		units[i] = u
	}
	return &HistogramVec{f: r.register(name, help, "histogram", labelNames), edges: units}
}

// With returns the series for the label values, creating it on first use.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.with(labelValues, func() any {
		return &Histogram{edges: v.edges}
	}).(*Histogram)
}

// WriteText renders every family in the Prometheus text exposition
// format, version 0.0.4. Output is deterministic: families in
// registration order, series in creation order.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	hooks := append([]func(){}, r.onScrape...)
	fams := append([]*family{}, r.families...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		f.mu.Lock()
		keys := append([]string{}, f.order...)
		byKey := *f.series.Load()
		f.mu.Unlock()
		series := make([]any, len(keys))
		for i, k := range keys {
			series[i] = byKey[k]
		}
		if len(keys) == 0 {
			continue
		}
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for i, key := range keys {
			labelValues := strings.Split(key, "\xff")
			if key == "" && len(f.labelNames) == 0 {
				labelValues = nil
			}
			writeSeries(bw, f, labelValues, series[i])
		}
	}
	return bw.Flush()
}

func writeSeries(w io.Writer, f *family, labelValues []string, s any) {
	switch m := s.(type) {
	case *Counter:
		fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labelNames, labelValues, "", ""), m.Value())
	case *Gauge:
		fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labelNames, labelValues, "", ""), m.Value())
	case *Histogram:
		snap := m.h.Snapshot()
		// One merged walk: HDR buckets ascend, edges ascend; every HDR
		// bucket whose upper-edge representative is ≤ the current le edge
		// belongs to it cumulatively.
		var cum uint64
		ei := 0
		emit := func() {
			le := strconv.FormatFloat(float64(m.edges[ei])/1e6, 'g', -1, 64)
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labelNames, labelValues, "le", le), cum)
			ei++
		}
		snap.cumulative(func(edge int64, count uint64) {
			for ei < len(m.edges) && m.edges[ei] < edge {
				emit()
			}
			cum += count
		})
		for ei < len(m.edges) {
			emit()
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labelNames, labelValues, "le", "+Inf"), snap.Count)
		fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labelNames, labelValues, "", ""),
			strconv.FormatFloat(snap.Sum.Seconds(), 'g', -1, 64))
		fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labelNames, labelValues, "", ""), snap.Count)
	}
}

// labelString renders {a="x",b="y"} with an optional extra label (le)
// appended; empty when there are no labels at all.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extraName)
		sb.WriteString(`="`)
		sb.WriteString(extraValue)
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// ParseText parses a text exposition (as produced by WriteText or any
// Prometheus client) into a flat map from sample name — including the
// rendered label set, exactly as exposed — to value. Comments and blank
// lines are skipped. It exists for checking a scrape against
// in-process truth in tests; it is not a general Prometheus parser.
func ParseText(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("obs: unparseable exposition line %q", line)
		}
		name := strings.TrimSpace(line[:sp])
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: bad sample value in %q: %w", line, err)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("obs: duplicate series %q", name)
		}
		out[name] = v
	}
	return out, sc.Err()
}
