package impir

import (
	"bytes"
	"context"
	"net"
	"testing"
	"testing/quick"

	"github.com/impir/impir/internal/database"
)

// testServerConfig keeps the simulated machine small for unit tests.
func testServerConfig(kind EngineKind) ServerConfig {
	return ServerConfig{Engine: kind, DPUs: 8, Threads: 2}
}

func newPair(t *testing.T, kind EngineKind, db *DB) (*Server, *Server) {
	t.Helper()
	s0, err := NewServer(testServerConfig(kind))
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	s1, err := NewServer(testServerConfig(kind))
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if err := s0.Load(db); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if err := s1.Load(db); err != nil {
		t.Fatalf("Load: %v", err)
	}
	t.Cleanup(func() {
		s0.Close()
		s1.Close()
	})
	return s0, s1
}

func TestQuickstartFlow(t *testing.T) {
	db, err := GenerateHashDB(1<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	s0, s1 := newPair(t, EnginePIM, db)

	k0, k1, err := GenerateKeys(db.NumRecords(), 42)
	if err != nil {
		t.Fatal(err)
	}
	r0, bd0, err := s0.Answer(context.Background(), k0)
	if err != nil {
		t.Fatal(err)
	}
	r1, _, err := s1.Answer(context.Background(), k1)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Reconstruct(r0, r1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec, db.Record(42)) {
		t.Fatal("quickstart reconstruction failed")
	}
	if bd0.TotalModeled() <= 0 {
		t.Error("no modeled breakdown")
	}
}

// TestEnginesProduceIdenticalSubresults: the PIM, CPU and GPU engines are
// different executions of the same mathematics; for the same key over the
// same database their subresults must be byte-identical.
func TestEnginesProduceIdenticalSubresults(t *testing.T) {
	db, err := GenerateHashDB(700, 9) // non-power-of-two on purpose
	if err != nil {
		t.Fatal(err)
	}
	k0, _, err := GenerateKeys(db.NumRecords(), 123)
	if err != nil {
		t.Fatal(err)
	}

	var results [][]byte
	for _, kind := range []EngineKind{EnginePIM, EngineCPU, EngineGPU} {
		s, err := NewServer(testServerConfig(kind))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if err := s.Load(db); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		r, _, err := s.Answer(context.Background(), k0)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		results = append(results, r)
		s.Close()
	}
	if !bytes.Equal(results[0], results[1]) || !bytes.Equal(results[1], results[2]) {
		t.Fatalf("engines disagree:\n pim=%x\n cpu=%x\n gpu=%x",
			results[0][:8], results[1][:8], results[2][:8])
	}
}

func TestAllEnginesEndToEnd(t *testing.T) {
	db, err := GenerateHashDB(512, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []EngineKind{EnginePIM, EngineCPU, EngineGPU} {
		t.Run(kind.String(), func(t *testing.T) {
			s0, s1 := newPair(t, kind, db)
			for _, idx := range []uint64{0, 255, 511} {
				k0, k1, err := GenerateKeys(db.NumRecords(), idx)
				if err != nil {
					t.Fatal(err)
				}
				r0, _, err := s0.Answer(context.Background(), k0)
				if err != nil {
					t.Fatal(err)
				}
				r1, _, err := s1.Answer(context.Background(), k1)
				if err != nil {
					t.Fatal(err)
				}
				rec, err := Reconstruct(r0, r1)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(rec, db.Record(int(idx))) {
					t.Fatalf("engine %v index %d: wrong record", kind, idx)
				}
			}
		})
	}
}

func TestBatchAPI(t *testing.T) {
	db, err := GenerateHashDB(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	s0, s1 := newPair(t, EnginePIM, db)

	indices := []uint64{1, 100, 255, 1, 7}
	keys0 := make([]*Key, len(indices))
	keys1 := make([]*Key, len(indices))
	for i, idx := range indices {
		keys0[i], keys1[i], err = GenerateKeys(db.NumRecords(), idx)
		if err != nil {
			t.Fatal(err)
		}
	}
	r0, stats, err := s0.AnswerBatch(context.Background(), keys0)
	if err != nil {
		t.Fatal(err)
	}
	r1, _, err := s1.AnswerBatch(context.Background(), keys1)
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range indices {
		rec, err := Reconstruct(r0[i], r1[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec, db.Record(int(idx))) {
			t.Fatalf("batch item %d wrong", i)
		}
	}
	if stats.Queries != len(indices) || stats.ModeledQPS() <= 0 {
		t.Errorf("bad stats: %+v", stats)
	}
}

func TestNetworkDeployment(t *testing.T) {
	db, creds, err := database.GenerateCredentialDB(256, 5)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	cli, err := Open(ctx, FlatDeployment(startDeployment(t, db, 2)...))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if cli.RecordSize() != 32 {
		t.Errorf("RecordSize = %d", cli.RecordSize())
	}
	rec, err := cli.Retrieve(ctx, 77)
	if err != nil {
		t.Fatal(err)
	}
	want := database.CredentialHash(creds[77])
	if !bytes.Equal(rec, want[:]) {
		t.Fatal("network retrieval returned wrong record")
	}

	batch, err := cli.RetrieveBatch(ctx, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 {
		t.Fatalf("batch returned %d records", len(batch))
	}
	if _, err := cli.Retrieve(ctx, 1<<40); err == nil {
		t.Error("Retrieve accepted out-of-range index")
	}
	empty, err := cli.RetrieveBatch(ctx, nil)
	if err != nil {
		t.Errorf("empty batch errored: %v", err)
	}
	if empty == nil || len(empty) != 0 {
		t.Errorf("empty batch returned %v, want empty non-nil slice", empty)
	}
}

func TestDialRejectsMismatchedReplicas(t *testing.T) {
	dbA, _ := GenerateHashDB(128, 1)
	dbB, _ := GenerateHashDB(128, 2) // different content

	addrs := append(startDeployment(t, dbA, 1), startDeployment(t, dbB, 1)...)
	if _, err := Open(context.Background(), FlatDeployment(addrs...)); err == nil {
		t.Fatal("Open accepted mismatched replicas")
	}
}

func TestGenerateKeysValidation(t *testing.T) {
	if _, _, err := GenerateKeys(0, 0); err == nil {
		t.Error("GenerateKeys accepted empty database")
	}
	if _, _, err := GenerateKeys(100, 100); err == nil {
		t.Error("GenerateKeys accepted out-of-range index")
	}
	if _, err := domainFor(-1); err == nil {
		t.Error("domainFor accepted negative count")
	}
	d, err := domainFor(1000)
	if err != nil || d != 10 {
		t.Errorf("domainFor(1000) = %d, %v", d, err)
	}
}

func TestReconstructValidation(t *testing.T) {
	if _, err := Reconstruct([]byte{1}); err == nil {
		t.Error("Reconstruct accepted one subresult")
	}
	if _, err := Reconstruct([]byte{1}, []byte{1, 2}); err == nil {
		t.Error("Reconstruct accepted mismatched lengths")
	}
	out, err := Reconstruct([]byte{0xF0}, []byte{0x0F}, []byte{0xFF})
	if err != nil || out[0] != 0x00 {
		t.Errorf("3-server reconstruct = %x, %v", out, err)
	}
}

func TestParseEngineKind(t *testing.T) {
	for s, want := range map[string]EngineKind{
		"pim": EnginePIM, "impir": EnginePIM, "im-pir": EnginePIM,
		"cpu": EngineCPU, "cpu-pir": EngineCPU,
		"gpu": EngineGPU, "gpu-pir": EngineGPU,
	} {
		got, err := ParseEngineKind(s)
		if err != nil || got != want {
			t.Errorf("ParseEngineKind(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseEngineKind("tpu"); err == nil {
		t.Error("ParseEngineKind accepted unknown engine")
	}
	if EnginePIM.String() != "pim" || EngineKind(42).String() == "" {
		t.Error("EngineKind.String misbehaves")
	}
}

func TestServeTwiceRejected(t *testing.T) {
	db, _ := GenerateHashDB(64, 1)
	s0, _ := newPair(t, EngineCPU, db)
	lis, _ := net.Listen("tcp", "127.0.0.1:0")
	if err := s0.Serve(lis, 0); err != nil {
		t.Fatal(err)
	}
	lis2, _ := net.Listen("tcp", "127.0.0.1:0")
	defer lis2.Close()
	if err := s0.Serve(lis2, 0); err == nil {
		t.Fatal("second Serve accepted")
	}
}

// Property: for random indices, the end-to-end protocol returns the right
// record through the public API (CPU engine for speed).
func TestQuickEndToEnd(t *testing.T) {
	db, err := GenerateHashDB(512, 8)
	if err != nil {
		t.Fatal(err)
	}
	s0, s1 := newPair(t, EngineCPU, db)
	f := func(idxRaw uint16) bool {
		idx := uint64(idxRaw) % 512
		k0, k1, err := GenerateKeys(512, idx)
		if err != nil {
			return false
		}
		r0, _, err := s0.Answer(context.Background(), k0)
		if err != nil {
			return false
		}
		r1, _, err := s1.Answer(context.Background(), k1)
		if err != nil {
			return false
		}
		rec, err := Reconstruct(r0, r1)
		if err != nil {
			return false
		}
		return bytes.Equal(rec, db.Record(int(idx)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
