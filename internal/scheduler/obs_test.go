package scheduler

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/obs"
	"github.com/impir/impir/internal/pirproto"
)

// gatedEngine blocks ApplyUpdates on a channel so a test can hold the
// scheduler's update quiesce open for as long as it likes.
type gatedEngine struct {
	fakeEngine
	gate chan struct{}
}

func (g *gatedEngine) ApplyUpdates(updates map[uint64][]byte) error {
	<-g.gate
	return g.fakeEngine.ApplyUpdates(updates)
}

// TestReadyzFlipsDuringUpdateQuiesce drives a real admin HTTP endpoint
// against a scheduler whose update is deterministically stuck inside
// the engine: /readyz must report 503 naming update-quiesce for the
// whole quiesce, queries submitted meanwhile must be held (not failed),
// and /readyz must return to 200 once the update completes.
func TestReadyzFlipsDuringUpdateQuiesce(t *testing.T) {
	ge := &gatedEngine{gate: make(chan struct{})}
	reg := obs.NewRegistry()
	sm := obs.NewServerMetrics(reg)
	ready := obs.NewReadiness()
	ready.Set(obs.CondUpdateQuiesce, true)

	s := newSched(t, ge, Config{QueueDepth: 64, Obs: sm, Readiness: ready})
	reg.OnScrape(func() { sm.MirrorReadiness(ready) })

	admin := obs.NewAdmin(reg, ready)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go admin.Serve(lis)
	defer admin.Shutdown(context.Background())
	base := "http://" + lis.Addr().String()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before any update = %d, want 200", code)
	}

	// Start an update; the engine blocks on the gate, so the quiesce
	// stays open until the test releases it.
	updateDone := make(chan error, 1)
	go func() { updateDone <- s.Update(map[uint64][]byte{0: {1}}) }()

	// The readiness flip happens before the pass lock is even
	// acquired, so polling converges; once 503 it STAYS 503 while the
	// engine is stuck, which is what makes this deterministic.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := get("/readyz")
		if code == http.StatusServiceUnavailable {
			if !strings.Contains(body, "not ready: "+obs.CondUpdateQuiesce) {
				t.Fatalf("/readyz body %q must name %s", body, obs.CondUpdateQuiesce)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never flipped to 503 during the quiesce")
		}
		time.Sleep(time.Millisecond)
	}

	// A query submitted during the quiesce is held behind the update —
	// never failed.
	queryDone := make(chan error, 1)
	go func() {
		_, _, err := query(context.Background(), s, fakeKey)
		queryDone <- err
	}()
	select {
	case err := <-queryDone:
		t.Fatalf("query completed during the quiesce (err=%v), want it held", err)
	case <-time.After(50 * time.Millisecond):
	}

	// The scrape keeps answering mid-quiesce, and the ready gauge
	// mirrors the flip.
	if _, text := get("/metrics"); !strings.Contains(text, "\nimpir_ready 0\n") {
		t.Errorf("impir_ready is not 0 mid-quiesce:\n%s", text)
	}

	close(ge.gate)
	if err := <-updateDone; err != nil {
		t.Fatalf("update: %v", err)
	}
	if err := <-queryDone; err != nil {
		t.Fatalf("query held across the quiesce failed: %v", err)
	}

	for {
		code, _ := get("/readyz")
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never recovered after the update")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestObsStageObservations: the scheduler records queue and engine
// stage samples per request and engine phase samples per pass, and its
// counters are the cells the scrape renders.
func TestObsStageObservations(t *testing.T) {
	reg := obs.NewRegistry()
	s := newSched(t, &fakeEngine{}, Config{QueueDepth: 64, Obs: obs.NewServerMetrics(reg)})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, _, err := query(ctx, s, fakeKey); err != nil {
			t.Fatal(err)
		}
	}
	// A batch-8 pass adds one phase sample: the pass's whole 1 ms dpXOR.
	keys := []*dpf.Key{fakeKey, fakeKey, fakeKey, fakeKey, fakeKey, fakeKey, fakeKey, fakeKey}
	if _, _, err := s.Query(ctx, pirproto.MsgBatchQuery, dpf.Batch{Keys: keys}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := samples["impir_scheduler_submitted_total"]; got != float64(s.Stats().Submitted) {
		t.Errorf("scraped submitted = %v, stats say %d", got, s.Stats().Submitted)
	}
	for _, stage := range []string{obs.StageQueue, obs.StageEngine} {
		if got := samples[obs.StageCountSample("query", stage)]; got != 5 {
			t.Errorf("stage %s count = %v, want 5", stage, got)
		}
	}
	if got := samples[`impir_engine_phase_seconds_count{phase="dpXOR"}`]; got != 6 {
		t.Errorf("dpXOR phase count = %v after 6 passes, want 6", got)
	}
	// 1 ms splits evenly over 8 queries, so the sum is exact.
	if got := samples[`impir_engine_phase_seconds_sum{phase="dpXOR"}`]; got != 0.006 {
		t.Errorf("dpXOR phase sum = %vs, want the passes' 0.006s", got)
	}
}
