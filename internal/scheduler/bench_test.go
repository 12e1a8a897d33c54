package scheduler

import (
	"context"
	"sync"
	"testing"

	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/engine"
)

// benchScheduler drives K concurrent clients through one scheduler and
// reports the queue metrics via b.ReportMetric: average coalesced pass
// size, mean queue wait, and rejects. maxCoalesce 1 runs every query as
// its own pass; 0 is the default cap.
func benchScheduler(b *testing.B, maxCoalesce int) {
	cpu, err := engine.NewCPUPricer(4)
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(cpu)
	db, err := database.GenerateHashDB(1<<12, 3)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.LoadDatabase(db); err != nil {
		b.Fatal(err)
	}
	s, err := New(eng, Config{QueueDepth: 1024, MaxCoalesce: maxCoalesce})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	const clients = 16
	keys := make([]*dpf.Key, clients)
	for i := range keys {
		keys[i], _, err = dpf.Gen(dpf.Params{Domain: db.Domain()}, uint64(i*17), nil)
		if err != nil {
			b.Fatal(err)
		}
	}

	ctx := context.Background()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				if _, _, err := query(ctx, s, keys[c]); err != nil {
					b.Error(err)
				}
			}(c)
		}
		wg.Wait()
	}
	b.StopTimer()

	stats := s.Stats()
	b.ReportMetric(stats.AvgCoalesce(), "queries/pass")
	b.ReportMetric(float64(stats.AvgWait().Nanoseconds()), "queue-wait-ns")
	b.ReportMetric(float64(stats.Rejected), "rejects")
}

func BenchmarkSchedulerSerial(b *testing.B) { benchScheduler(b, 1) }

func BenchmarkSchedulerCoalesced(b *testing.B) { benchScheduler(b, 0) }
