package impir

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/obs"
)

// pollReadyz fetches /readyz once, failing the test on transport errors.
func pollReadyz(t *testing.T, base string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + "/readyz")
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

// TestObsAdminEndToEnd drives a real two-party TCP deployment under
// concurrent load while scraping the admin endpoint the way an external
// Prometheus would: /readyz must be 503 before Load and before Serve,
// 200 while serving, and flip back during shutdown; a /metrics scrape
// under load must lie between the QueueStats() snapshots around it;
// the stage histograms must be non-empty for every frame type exercised;
// and no query may fail across the epoch flips concurrent updates cause.
func TestObsAdminEndToEnd(t *testing.T) {
	db, err := GenerateHashDB(512, 3)
	if err != nil {
		t.Fatal(err)
	}
	s0, err := NewServer(ServerConfig{Engine: EngineCPU})
	if err != nil {
		t.Fatal(err)
	}
	defer s0.Close()
	s1, err := NewServer(ServerConfig{Engine: EngineCPU})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()

	// Admin endpoint first: it must be scrapeable while the server is
	// up but not yet ready.
	alis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	adminDone := make(chan error, 1)
	go func() { adminDone <- s0.ServeAdmin(alis) }()
	base := "http://" + alis.Addr().String()

	if code, body := pollReadyz(t, base); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, obs.CondDBLoaded) {
		t.Fatalf("/readyz before Load = %d %q, want 503 naming %s", code, body, obs.CondDBLoaded)
	}
	if err := s0.Load(db); err != nil {
		t.Fatal(err)
	}
	if err := s1.Load(db); err != nil {
		t.Fatal(err)
	}
	if code, body := pollReadyz(t, base); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, obs.CondServing) {
		t.Fatalf("/readyz after Load, before Serve = %d %q, want 503 naming %s", code, body, obs.CondServing)
	}

	rawLis0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lis1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The wrapped listener blocks its own Close until released, pinning
	// Shutdown inside its drain window so the /readyz-during-drain
	// observation below is deterministic rather than a race.
	release := make(chan struct{})
	lis0 := &blockingCloseListener{Listener: rawLis0, release: release}
	if err := s0.Serve(lis0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s1.Serve(lis1, 1); err != nil {
		t.Fatal(err)
	}
	if code, _ := pollReadyz(t, base); code != http.StatusOK {
		t.Fatalf("/readyz while serving = %d, want 200", code)
	}

	ctx := context.Background()
	d := Deployment{RecordSize: db.RecordSize(), Shards: []DeploymentShard{{
		FirstRecord: 0,
		NumRecords:  uint64(db.NumRecords()),
		Parties: []Party{
			{Replicas: []string{s0.Addr().String()}},
			{Replicas: []string{s1.Addr().String()}},
		},
	}}}
	store, err := Open(ctx, d, NewObserver(ObserverConfig{}).Option())
	if err != nil {
		t.Fatal(err)
	}

	// Expected record values, fetched before the concurrent phase so
	// correctness can be asserted under epoch flips. The updates below
	// rewrite record 0 with its current bytes on BOTH servers: a
	// byte-identical database at every instant, so no query can observe
	// version skew — the quiesce machinery still runs for real.
	rec0, err := store.Retrieve(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 4, 25
	want := make([][]byte, clients)
	for c := range want {
		if want[c], err = store.Retrieve(ctx, uint64(1+c)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients*2+1)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for q := 0; q < perClient; q++ {
				rec, err := store.Retrieve(ctx, uint64(1+c))
				if err != nil {
					errs <- fmt.Errorf("client %d retrieve %d: %w", c, q, err)
					return
				}
				if !bytes.Equal(rec, want[c]) {
					errs <- fmt.Errorf("client %d got wrong record during epoch flips", c)
					return
				}
				if q%5 == 0 {
					if _, err := store.RetrieveBatch(ctx, []uint64{uint64(1 + c), uint64(10 + c)}); err != nil {
						errs <- fmt.Errorf("client %d batch: %w", c, err)
						return
					}
				}
			}
		}(c)
	}
	// Concurrent updates: same bytes, both servers, real quiesces.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			for _, s := range []*Server{s0, s1} {
				if err := s.Update(map[uint64][]byte{0: rec0}); err != nil {
					errs <- fmt.Errorf("update %d: %w", i, err)
					return
				}
			}
		}
	}()
	// A probe hammering /readyz through the load: every response must
	// be a clean 200 or 503 — the admin plane never errors under
	// query-plane load.
	probeStop := make(chan struct{})
	probeDone := make(chan struct{})
	go func() {
		defer close(probeDone)
		for {
			select {
			case <-probeStop:
				return
			default:
			}
			resp, err := http.Get(base + "/readyz")
			if err != nil {
				errs <- fmt.Errorf("/readyz under load: %w", err)
				return
			}
			code := resp.StatusCode
			resp.Body.Close()
			if code != http.StatusOK && code != http.StatusServiceUnavailable {
				errs <- fmt.Errorf("/readyz returned %d under load", code)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// The scrape renders the cells QueueStats() reads, so under live
	// load every counter it shows lies between the snapshots around it.
	before := schedCounters(s0.QueueStats())
	samples := scrapeMetrics(t, base)
	after := schedCounters(s0.QueueStats())
	for name, lo := range before {
		if got := samples[name]; got < float64(lo) || got > float64(after[name]) {
			t.Errorf("%s scraped %v, outside QueueStats bracket [%d, %d]", name, got, lo, after[name])
		}
	}
	wg.Wait()
	close(probeStop)
	<-probeDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := s0.QueueStats(); st.Updates != 5 {
		t.Fatalf("server 0 applied %d updates, want 5", st.Updates)
	}

	samples = scrapeMetrics(t, base)
	if got := samples["impir_db_records"]; got != float64(db.NumRecords()) {
		t.Errorf("impir_db_records = %v, want %d", got, db.NumRecords())
	}
	// Per-stage latency histograms must be non-empty for every frame
	// type this load exercised.
	for _, frame := range []string{"query", "batch"} {
		for _, stage := range []string{obs.StageQueue, obs.StageEngine, obs.StageTotal} {
			if got := samples[obs.StageCountSample(frame, stage)]; got == 0 {
				t.Errorf("stage histogram empty for frame=%s stage=%s", frame, stage)
			}
		}
	}
	if got := samples[obs.RequestSample("query")]; got == 0 {
		t.Error("impir_requests_total{frame=\"query\"} is zero after load")
	}

	// Client-side observability saw the same traffic.
	st := store.Stats()
	wantUnary := uint64(1 + clients + clients*perClient)
	if st.Retrievals != wantUnary {
		t.Errorf("client Retrievals = %d, want %d", st.Retrievals, wantUnary)
	}
	if st.BatchRetrievals == 0 || st.Errors != 0 {
		t.Errorf("client batches=%d errors=%d, want batches > 0 and zero errors",
			st.BatchRetrievals, st.Errors)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Shutdown: readiness flips BEFORE the query plane drains, and the
	// admin endpoint is the LAST thing to stop. The blocked listener
	// Close pins Shutdown inside the drain, so /readyz must converge to
	// 503 and stay there until the test releases it.
	sdDone := make(chan error, 1)
	go func() { sdDone <- s0.Shutdown(context.Background()) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, _ := pollReadyz(t, base)
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never observed /readyz 503 during the drain window")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-sdDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The registry outlives the listener: the ready gauge records the
	// flip even after the admin endpoint stops.
	var sb strings.Builder
	if err := s0.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\nimpir_ready 0\n") {
		t.Errorf("impir_ready is not 0 after Shutdown:\n%s", sb.String())
	}
	<-adminDone
}

// scrapeMetrics fetches and parses /metrics.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// schedCounters names every scheduler counter of st by its sample.
func schedCounters(st metrics.SchedulerStats) map[string]uint64 {
	m := map[string]uint64{
		"impir_scheduler_submitted_total":         st.Submitted,
		"impir_scheduler_rejected_total":          st.Rejected,
		"impir_scheduler_cancelled_total":         st.Cancelled,
		"impir_scheduler_dispatched_total":        st.Dispatched,
		"impir_scheduler_passes_total":            st.Passes,
		"impir_scheduler_coalesced_passes_total":  st.CoalescedPasses,
		"impir_scheduler_coalesced_queries_total": st.CoalescedQueries,
		"impir_scheduler_fused_passes_total":      st.FusedPasses,
		"impir_scheduler_updates_total":           st.Updates,
		"impir_db_epoch":                          st.Epoch,
		"impir_scheduler_queue_depth_max":         uint64(st.MaxDepth),
	}
	for i, w := range st.PassWidths {
		m[`impir_scheduler_pass_width_total{width="`+metrics.WidthBucketLabel(i)+`"}`] = w
	}
	return m
}

// blockingCloseListener holds its Close until released, letting the
// test freeze Server.Shutdown inside its drain window.
type blockingCloseListener struct {
	net.Listener
	release chan struct{}
}

func (l *blockingCloseListener) Close() error {
	<-l.release
	return l.Listener.Close()
}
