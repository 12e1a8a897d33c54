package impir_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"

	"github.com/impir/impir"
)

// The complete two-server protocol in one process: generate a key pair,
// answer on both replicas, reconstruct.
func Example() {
	ctx := context.Background()
	db, _ := impir.GenerateHashDB(1024, 7)
	s0, _ := impir.NewServer(impir.ServerConfig{DPUs: 16})
	s1, _ := impir.NewServer(impir.ServerConfig{DPUs: 16})
	_ = s0.Load(db)
	_ = s1.Load(db)
	defer s0.Close()
	defer s1.Close()

	k0, k1, _ := impir.GenerateKeys(db.NumRecords(), 42)
	r0, _, _ := s0.Answer(ctx, k0)
	r1, _, _ := s1.Answer(ctx, k1)
	record, _ := impir.Reconstruct(r0, r1)

	fmt.Println(bytes.Equal(record, db.Record(42)))
	// Output: true
}

// A network deployment through the unified Store API: serve two
// replicas over TCP, Open the deployment, retrieve privately. Open
// validates the replicas and picks the DPF encoding from the party
// count; Retrieve queries both parties concurrently.
func ExampleOpen() {
	ctx := context.Background()
	db, _ := impir.GenerateHashDB(1024, 7)
	addrs := make([]string, 2)
	for i := range addrs {
		srv, _ := impir.NewServer(impir.ServerConfig{Engine: impir.EngineCPU, Threads: 2})
		_ = srv.Load(db)
		defer srv.Close()
		lis, _ := net.Listen("tcp", "127.0.0.1:0")
		_ = srv.Serve(lis, uint8(i))
		addrs[i] = srv.Addr().String()
	}

	store, err := impir.Open(ctx, impir.FlatDeployment(addrs...))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer store.Close()

	record, _ := store.Retrieve(ctx, 42)
	fmt.Println(store.(*impir.Client).Encoding(), bytes.Equal(record, db.Record(42)))
	// Output: dpf true
}

// Deployments with more than two servers use the naive share encoding —
// EncodingAuto selects it from the server count, and RetrieveBatch
// fetches several records in one round trip per server.
func ExampleOpen_threeServers() {
	ctx := context.Background()
	db, _ := impir.GenerateHashDB(512, 3)
	addrs := make([]string, 3)
	for i := range addrs {
		srv, _ := impir.NewServer(impir.ServerConfig{Engine: impir.EngineCPU, Threads: 2})
		_ = srv.Load(db)
		defer srv.Close()
		lis, _ := net.Listen("tcp", "127.0.0.1:0")
		_ = srv.Serve(lis, uint8(i))
		addrs[i] = srv.Addr().String()
	}

	store, err := impir.Open(ctx, impir.FlatDeployment(addrs...))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer store.Close()

	records, _ := store.RetrieveBatch(ctx, []uint64{99, 300})
	fmt.Println(store.(*impir.Client).Encoding(),
		bytes.Equal(records[0], db.Record(99)),
		bytes.Equal(records[1], db.Record(300)))
	// Output: shares true true
}

// Reconstruct XORs the servers' subresults; neither alone is the
// record. Here two CPU-engine replicas each answer one key of a DPF
// pair, in process.
func ExampleReconstruct() {
	ctx := context.Background()
	db, _ := impir.GenerateHashDB(256, 3)
	keys := make([]*impir.Key, 2)
	keys[0], keys[1], _ = impir.GenerateKeys(db.NumRecords(), 99)

	subresults := make([][]byte, 2)
	for i := range subresults {
		s, _ := impir.NewServer(impir.ServerConfig{Engine: impir.EngineCPU, Threads: 2})
		defer s.Close()
		_ = s.Load(db)
		subresults[i], _, _ = s.Answer(ctx, keys[i])
	}

	record, _ := impir.Reconstruct(subresults...)
	fmt.Println(bytes.Equal(subresults[0], db.Record(99)), bytes.Equal(record, db.Record(99)))
	// Output: false true
}

// A keyword store: BuildKVDB packs key→value pairs into an ordinary PIR
// database served like any other, and OpenKV looks keys up privately.
// A hit and a miss send byte-identical traffic; only the client learns
// which it was.
func ExampleOpenKV() {
	ctx := context.Background()
	pairs := []impir.KVPair{
		{Key: []byte("alice"), Value: []byte("pw-hash-1")},
		{Key: []byte("bob"), Value: []byte("pw-hash-2")},
	}
	db, manifest, _ := impir.BuildKVDB(pairs, impir.KVTableOptions{})
	addrs := make([]string, 2)
	for i := range addrs {
		srv, _ := impir.NewServer(impir.ServerConfig{Engine: impir.EngineCPU, Threads: 2})
		_ = srv.Load(db)
		defer srv.Close()
		lis, _ := net.Listen("tcp", "127.0.0.1:0")
		_ = srv.Serve(lis, uint8(i))
		addrs[i] = srv.Addr().String()
	}

	kv, err := impir.OpenKV(ctx, impir.FlatDeployment(addrs...).WithKeyword(manifest))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer kv.Close()

	value, _ := kv.Get(ctx, []byte("bob"))
	_, err = kv.Get(ctx, []byte("carol"))
	fmt.Println(string(value), errors.Is(err, impir.ErrNotFound))
	// Output: pw-hash-2 true
}

// A sharded deployment: SplitDB carves the database into row ranges,
// each served by its own two-party cohort, and Open over the deployment
// UniformManifest describes retrieves by global index, sending every
// cohort a sub-query.
func ExampleSplitDB() {
	ctx := context.Background()
	db, _ := impir.GenerateHashDB(1024, 5)
	parts, _ := impir.SplitDB(db, 2)
	cohorts := make([][]string, len(parts))
	for s, part := range parts {
		for party := 0; party < 2; party++ {
			srv, _ := impir.NewServer(impir.ServerConfig{Engine: impir.EngineCPU, Threads: 2})
			_ = srv.Load(part)
			defer srv.Close()
			lis, _ := net.Listen("tcp", "127.0.0.1:0")
			_ = srv.Serve(lis, uint8(party))
			cohorts[s] = append(cohorts[s], srv.Addr().String())
		}
	}
	d, _ := impir.UniformManifest(uint64(db.NumRecords()), db.RecordSize(), cohorts)

	store, err := impir.Open(ctx, d)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer store.Close()

	record, _ := store.Retrieve(ctx, 900) // owned by shard 1
	fmt.Println(bytes.Equal(record, db.Record(900)))
	// Output: true
}
