package impir

import (
	"bytes"
	"context"
	"net"
	"testing"
)

// TestShareQueriesAcrossEngines: every engine must answer the naive
// share encoding, single and batched, over three loopback servers. The
// 500 records pad to a 512-bit share, so every engine also checks that
// shares cover the announced index space, not just the held records.
func TestShareQueriesAcrossEngines(t *testing.T) {
	db, err := GenerateHashDB(500, 21)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, kind := range []EngineKind{EnginePIM, EngineCPU, EngineGPU} {
		t.Run(kind.String(), func(t *testing.T) {
			addrs := make([]string, 3)
			for i := range addrs {
				srv, err := NewServer(testServerConfig(kind))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
				if err := srv.Load(db); err != nil {
					t.Fatal(err)
				}
				lis, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				if err := srv.Serve(lis, uint8(i)); err != nil {
					t.Fatal(err)
				}
				addrs[i] = srv.Addr().String()
			}
			store, err := Open(ctx, FlatDeployment(addrs...), WithEncoding(EncodingShares))
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()

			const index = 300
			rec, err := store.Retrieve(ctx, index)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec, db.Record(index)) {
				t.Fatalf("engine %v: 3-server share retrieval wrong", kind)
			}
			indices := []uint64{0, index, 499}
			recs, err := store.RetrieveBatch(ctx, indices)
			if err != nil {
				t.Fatal(err)
			}
			for i, idx := range indices {
				if !bytes.Equal(recs[i], db.Record(int(idx))) {
					t.Fatalf("engine %v: 3-server share batch item %d (index %d) wrong", kind, i, idx)
				}
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
