package impir

import (
	"bytes"
	"context"
	"testing"
)

// TestShareQueriesAcrossEngines: every engine must answer the naive
// share encoding identically to the DPF encoding.
func TestShareQueriesAcrossEngines(t *testing.T) {
	db, err := GenerateHashDB(512, 21)
	if err != nil {
		t.Fatal(err)
	}
	const index = 300
	for _, kind := range []EngineKind{EnginePIM, EngineCPU, EngineGPU} {
		t.Run(kind.String(), func(t *testing.T) {
			shares, err := GenerateShares(db.NumRecords(), index, 3)
			if err != nil {
				t.Fatal(err)
			}
			servers := make([]*Server, 3)
			subresults := make([][]byte, 3)
			for i := range servers {
				servers[i], err = NewServer(testServerConfig(kind))
				if err != nil {
					t.Fatal(err)
				}
				defer servers[i].Close()
				if err := servers[i].Load(db); err != nil {
					t.Fatal(err)
				}
				subresults[i], _, err = servers[i].AnswerShare(context.Background(), shares[i])
				if err != nil {
					t.Fatalf("AnswerShare server %d: %v", i, err)
				}
			}
			rec, err := Reconstruct(subresults...)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec, db.Record(index)) {
				t.Fatalf("engine %v: 3-server share retrieval wrong", kind)
			}
		})
	}
}

func TestThreeServerDeploymentOverTCP(t *testing.T) {
	db, err := GenerateHashDB(700, 33) // non-power-of-two: shares cover padding
	if err != nil {
		t.Fatal(err)
	}

	addrs := startDeployment(t, db, 3)
	ctx := context.Background()
	cli, err := Open(ctx, FlatDeployment(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if cli.(*Client).Servers() != 3 {
		t.Fatalf("Servers() = %d", cli.(*Client).Servers())
	}

	for _, idx := range []uint64{0, 350, 699} {
		rec, err := cli.Retrieve(ctx, idx)
		if err != nil {
			t.Fatalf("Retrieve(%d): %v", idx, err)
		}
		if !bytes.Equal(rec, db.Record(int(idx))) {
			t.Fatalf("index %d: wrong record via 3-server client", idx)
		}
	}
	if _, err := cli.Retrieve(ctx, 1<<30); err == nil {
		t.Error("out-of-range retrieve accepted")
	}
}

func TestDialMultiServerValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Open(ctx, FlatDeployment("127.0.0.1:1")); err == nil {
		t.Error("single server accepted")
	}
	// Mismatched replicas across three servers must be rejected.
	dbA, _ := GenerateHashDB(128, 1)
	dbB, _ := GenerateHashDB(128, 2)
	addrs := append(startDeployment(t, dbA, 2), startDeployment(t, dbB, 1)...)
	if _, err := Open(ctx, FlatDeployment(addrs...)); err == nil {
		t.Fatal("mismatched 3-server replicas accepted")
	}
}

func TestGenerateSharesValidation(t *testing.T) {
	if _, err := GenerateShares(0, 0, 2); err == nil {
		t.Error("empty database accepted")
	}
	if _, err := GenerateShares(100, 100, 2); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := GenerateShares(100, 0, 1); err == nil {
		t.Error("single server accepted")
	}
	shares, err := GenerateShares(100, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Shares cover the padded index space (128 for 100 records).
	if shares[0].Len() != 128 {
		t.Fatalf("share length %d, want 128 (padded)", shares[0].Len())
	}
}

func TestAnswerShareValidation(t *testing.T) {
	db, _ := GenerateHashDB(128, 1)
	s0, _ := newPair(t, EnginePIM, db)
	short := new(Share) // zero-length share
	if _, _, err := s0.AnswerShare(context.Background(), short); err == nil {
		t.Error("mis-sized share accepted")
	}
}
