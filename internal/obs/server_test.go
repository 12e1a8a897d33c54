package obs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/impir/impir/internal/metrics"
)

// TestServerMetricsRecordAllocFree: once a query frame's series exist,
// its observations (request count, queue and engine stages, phase
// samples, total stage) allocate nothing. The series still enter the
// exposition in the order they were first observed.
func TestServerMetricsRecordAllocFree(t *testing.T) {
	reg := NewRegistry()
	m := NewServerMetrics(reg)
	var pass metrics.BatchStats
	pass.Queries = 1
	pass.PerQuery.Wall[metrics.PhaseEval] = 3 * time.Microsecond
	pass.PerQuery.Wall[metrics.PhaseDpXOR] = 5 * time.Microsecond
	frames := 0
	frame := func(label string) {
		frames++
		m.IncRequest(label)
		m.ObserveStage(label, StageQueue, time.Microsecond)
		m.ObservePass(pass)
		m.ObserveStage(label, StageEngine, 8*time.Microsecond)
		m.ObserveStage(label, StageTotal, 20*time.Microsecond)
	}
	m.ObserveStage("hello", StageTotal, time.Microsecond)
	frame("query")
	m.IncBusy("batch")
	m.IncFailure("query")
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(100, func() { frame("query") }); allocs != 0 {
			t.Errorf("one query frame's observations allocate %.1f times, want 0", allocs)
		}
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	at := func(sample string) int {
		t.Helper()
		i := strings.Index(text, sample)
		if i < 0 {
			t.Fatalf("exposition lacks %s", sample)
		}
		return i
	}
	order := []string{
		StageCountSample("hello", StageTotal),
		StageCountSample("query", StageQueue),
		StageCountSample("query", StageEngine),
		StageCountSample("query", StageTotal),
	}
	for i := 1; i < len(order); i++ {
		if at(order[i-1]) > at(order[i]) {
			t.Errorf("%s rendered after %s", order[i-1], order[i])
		}
	}
	samples, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	n := float64(frames)
	for sample, want := range map[string]float64{
		RequestSample("query"):                            n,
		`impir_busy_rejects_total{frame="batch"}`:         1,
		`impir_request_failures_total{frame="query"}`:     1,
		StageCountSample("query", StageTotal):             n,
		`impir_engine_phase_seconds_count{phase="Eval"}`:  n,
		`impir_engine_phase_seconds_count{phase="dpXOR"}`: n,
	} {
		if got := samples[sample]; got != want {
			t.Errorf("%s = %v, want %v", sample, got, want)
		}
	}
	if _, ok := samples[`impir_busy_rejects_total{frame="query"}`]; ok {
		t.Error("a busy series was rendered for a frame never refused")
	}
}

// TestServerMetricsConcurrentFirstUse: connections creating the same
// fresh frame series at once lose no count.
func TestServerMetricsConcurrentFirstUse(t *testing.T) {
	reg := NewRegistry()
	m := NewServerMetrics(reg)
	labels := []string{"query", "batch", "share"}
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				for _, l := range labels {
					m.IncRequest(l)
					m.ObserveStage(l, StageTotal, time.Duration(i)*time.Microsecond)
				}
			}
		}()
	}
	wg.Wait()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range labels {
		for _, sample := range []string{RequestSample(l), StageCountSample(l, StageTotal)} {
			if got := samples[sample]; got != workers*per {
				t.Errorf("%s = %v, want %d", sample, got, workers*per)
			}
		}
	}
}
