// Quickstart: two-server PIR in a single process.
//
// Builds a 4096-record database, replicates it onto two IM-PIR servers
// (each with a modeled PIM system), retrieves one record privately, and
// shows why neither server learns the query: their individual subresults
// are pseudorandom, and only their XOR is the record. It then serves the
// same pair over loopback TCP and repeats the retrieval through the
// production surface — impir.Open over a deployment manifest.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"

	"github.com/impir/impir"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		numRecords = 4096
		queryIndex = 1337
	)

	// The public database: 32-byte hash records, as in the paper's
	// evaluation (think certificate hashes or breached-credential
	// digests).
	db, err := impir.GenerateHashDB(numRecords, 42)
	if err != nil {
		return err
	}
	fmt.Printf("database: %d records × %d bytes\n", db.NumRecords(), db.RecordSize())

	// Two non-colluding servers, each holding a full replica. The zero
	// ServerConfig is the paper's IM-PIR setup; we shrink the modeled
	// PIM machine so the example runs instantly.
	cfg := impir.ServerConfig{Engine: impir.EnginePIM, DPUs: 16}
	server0, err := impir.NewServer(cfg)
	if err != nil {
		return err
	}
	defer server0.Close()
	server1, err := impir.NewServer(cfg)
	if err != nil {
		return err
	}
	defer server1.Close()
	if err := server0.Load(db); err != nil {
		return err
	}
	if err := server1.Load(db); err != nil {
		return err
	}

	// Client: encode the query as a DPF key pair. Each key alone is
	// pseudorandom — it reveals nothing about queryIndex.
	k0, k1, err := impir.GenerateKeys(db.NumRecords(), queryIndex)
	if err != nil {
		return err
	}
	fmt.Printf("query for index %d encoded as two %d-byte keys\n", queryIndex, k0.WireSize())

	// Each server evaluates its key over the whole database (the
	// all-for-one principle) and returns a subresult.
	ctx := context.Background()
	r0, breakdown, err := server0.Answer(ctx, k0)
	if err != nil {
		return err
	}
	r1, _, err := server1.Answer(ctx, k1)
	if err != nil {
		return err
	}

	// Individually the subresults look like noise…
	fmt.Printf("server 0 subresult: %x…\n", r0[:8])
	fmt.Printf("server 1 subresult: %x…\n", r1[:8])
	if bytes.Equal(r0, db.Record(queryIndex)) || bytes.Equal(r1, db.Record(queryIndex)) {
		return fmt.Errorf("a single subresult equals the record — this must never happen")
	}

	// …but their XOR is exactly the queried record.
	record, err := impir.Reconstruct(r0, r1)
	if err != nil {
		return err
	}
	fmt.Printf("reconstructed:      %x…\n", record[:8])
	if !bytes.Equal(record, db.Record(queryIndex)) {
		return fmt.Errorf("reconstruction failed")
	}
	fmt.Println("reconstruction matches db.Record(1337) ✓")

	fmt.Printf("\nserver-side phase breakdown (modeled on the paper's hardware):\n  %s\n", breakdown.String())

	// The same protocol through the production surface: serve both
	// replicas over TCP and drive them with impir.Open — one deployment
	// manifest, one Store, the encoding and fan-out handled inside.
	var addrs []string
	for i, srv := range []*impir.Server{server0, server1} {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		if err := srv.Serve(lis, uint8(i)); err != nil {
			return err
		}
		addrs = append(addrs, srv.Addr().String())
	}
	store, err := impir.Open(ctx, impir.FlatDeployment(addrs...))
	if err != nil {
		return err
	}
	defer store.Close()
	record, err = store.Retrieve(ctx, queryIndex)
	if err != nil {
		return err
	}
	if !bytes.Equal(record, db.Record(queryIndex)) {
		return fmt.Errorf("network reconstruction failed")
	}
	fmt.Printf("\nsame retrieval over TCP via impir.Open: %x… ✓\n", record[:8])
	return nil
}
