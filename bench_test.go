// Functional micro-benchmarks of the public API: the real engines on
// scaled databases, for measuring while you work. The paper's modeled
// figures and tables are deterministic, so internal/bench checks them as
// unit tests (`impir-bench` prints them); regressions are judged by
// `go run ./benchmark`.
package impir

import (
	"context"
	"testing"
)

func setupBenchServer(b *testing.B, kind EngineKind, records int) *Server {
	b.Helper()
	srv, err := NewServer(ServerConfig{Engine: kind, DPUs: 16, Threads: 2})
	if err != nil {
		b.Fatal(err)
	}
	db, err := GenerateHashDB(records, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Load(db); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return srv
}

func benchmarkEngineQuery(b *testing.B, kind EngineKind) {
	const records = 1 << 14
	srv := setupBenchServer(b, kind, records)
	k0, _, err := GenerateKeys(records, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(records) * 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := srv.Answer(context.Background(), k0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryPIMEngine(b *testing.B) { benchmarkEngineQuery(b, EnginePIM) }
func BenchmarkQueryCPUEngine(b *testing.B) { benchmarkEngineQuery(b, EngineCPU) }
func BenchmarkQueryGPUEngine(b *testing.B) { benchmarkEngineQuery(b, EngineGPU) }

func BenchmarkQueryBatch32PIM(b *testing.B) {
	const records = 1 << 13
	srv := setupBenchServer(b, EnginePIM, records)
	keys := make([]*Key, 32)
	for i := range keys {
		k0, _, err := GenerateKeys(records, uint64(i*97)%records)
		if err != nil {
			b.Fatal(err)
		}
		keys[i] = k0
	}
	b.SetBytes(int64(records) * 32 * int64(len(keys)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := srv.AnswerBatch(context.Background(), keys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateKeys(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := GenerateKeys(1<<20, uint64(i)&(1<<20-1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstruct(b *testing.B) {
	r0 := make([]byte, 32)
	r1 := make([]byte, 32)
	for i := range r0 {
		r0[i], r1[i] = byte(i), byte(i*7)
	}
	b.SetBytes(32)
	for i := 0; i < b.N; i++ {
		if _, err := Reconstruct(r0, r1); err != nil {
			b.Fatal(err)
		}
	}
}
