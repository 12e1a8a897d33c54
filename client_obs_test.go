package impir

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/impir/impir/internal/obs"
)

func TestClientObsOutcomesAndExposition(t *testing.T) {
	co := NewClientObs()
	ctx := context.Background()

	okInvoke := func(ctx context.Context, index uint64) ([]byte, error) { return []byte{1}, nil }
	busyInvoke := func(ctx context.Context, index uint64) ([]byte, error) { return nil, ErrServerBusy }
	errInvoke := func(ctx context.Context, index uint64) ([]byte, error) { return nil, errors.New("boom") }

	if _, err := co.interceptUnary(ctx, 1, okInvoke); err != nil {
		t.Fatal(err)
	}
	if _, err := co.interceptUnary(ctx, 2, busyInvoke); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("busy error not passed through: %v", err)
	}
	if _, err := co.interceptUnary(ctx, 3, errInvoke); err == nil {
		t.Fatal("error not passed through")
	}
	if _, err := co.interceptBatch(ctx, []uint64{1, 2}, func(ctx context.Context, idx []uint64) ([][]byte, error) {
		return make([][]byte, len(idx)), nil
	}); err != nil {
		t.Fatal(err)
	}

	snap := co.Snapshot()
	if snap.Retrieve.Calls != 3 || snap.Retrieve.Errors != 2 || snap.Retrieve.Busy != 1 {
		t.Errorf("Retrieve stats = %+v, want calls=3 errors=2 busy=1", snap.Retrieve)
	}
	if snap.RetrieveBatch.Calls != 1 || snap.RetrieveBatch.Errors != 0 {
		t.Errorf("RetrieveBatch stats = %+v, want calls=1 errors=0", snap.RetrieveBatch)
	}
	// Sub-microsecond invokes sit below the histogram's unit, so only
	// ordering is asserted, not positivity.
	if snap.Retrieve.Max < snap.Retrieve.P50 || snap.Retrieve.P99 < snap.Retrieve.P50 {
		t.Errorf("latency quantiles out of order: %+v", snap.Retrieve)
	}

	// The exposition carries the same truth, through the same parser
	// the server's scrape tests use.
	rec := httptest.NewRecorder()
	co.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	samples, err := obs.ParseText(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	for sample, want := range map[string]float64{
		`impir_client_requests_total{op="retrieve",outcome="ok"}`:       1,
		`impir_client_requests_total{op="retrieve",outcome="busy"}`:     1,
		`impir_client_requests_total{op="retrieve",outcome="error"}`:    1,
		`impir_client_requests_total{op="retrieve_batch",outcome="ok"}`: 1,
		`impir_client_latency_seconds_count{op="retrieve"}`:             3,
	} {
		if got := samples[sample]; got != want {
			t.Errorf("%s = %v, want %v", sample, got, want)
		}
	}
}
