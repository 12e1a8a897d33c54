// Three-server PIR with the naive share encoding (§2.3 / Figure 2).
//
// The DPF encoding used elsewhere in this module is two-party; the
// paper's naive scheme generalises to any number of servers at the cost
// of O(N)-bit queries. With three servers, privacy survives even if two
// of them collude pairwise-not-all: the client is protected as long as at
// least one server keeps its share to itself.
//
// This example deploys three servers over TCP (each running a different
// engine — the subresults must agree regardless) and retrieves records
// through the Client API, which selects the share encoding automatically
// from the server count and queries all three servers concurrently. It
// also batches several retrievals into one round trip per server, and
// prints the communication cost the O(N) encoding pays compared to DPF
// keys.
//
//	go run ./examples/threeserver
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"

	"github.com/impir/impir"
)

const (
	dbRecords = 4096
	dbSeed    = 99
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	db, err := impir.GenerateHashDB(dbRecords, dbSeed)
	if err != nil {
		return err
	}

	// Three non-colluding operators; deliberately heterogeneous engines.
	engines := []impir.EngineKind{impir.EnginePIM, impir.EngineCPU, impir.EngineGPU}
	addrs := make([]string, len(engines))
	for i, kind := range engines {
		srv, err := impir.NewServer(impir.ServerConfig{
			Engine: kind, DPUs: 16, Threads: 2,
			// Bound the admission queue so overload rejects busy instead
			// of queueing without limit. (Coalescing never applies here:
			// it merges single DPF queries, and an n-server deployment's
			// clients send share queries.)
			QueueDepth: 512,
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		if err := srv.Load(db); err != nil {
			return err
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		if err := srv.Serve(lis, uint8(i)); err != nil {
			return err
		}
		addrs[i] = srv.Addr().String()
		fmt.Printf("server %d: %s engine on %s\n", i, srv.EngineName(), srv.Addr())
	}

	// EncodingAuto resolves to the share encoding for 3+ servers; the
	// explicit option below just makes the choice visible.
	ctx := context.Background()
	store, err := impir.Open(ctx, impir.FlatDeployment(addrs...), impir.WithEncoding(impir.EncodingShares))
	if err != nil {
		return err
	}
	defer store.Close()
	cli := store.(*impir.Client) // every deployment opens as *Client
	fmt.Printf("\nconnected to %d servers, replicas verified (%d records × %d B, %s encoding)\n",
		cli.Servers(), cli.NumRecords(), cli.RecordSize(), cli.Encoding())

	const index = 2025
	rec, err := cli.Retrieve(ctx, index)
	if err != nil {
		return err
	}
	if !bytes.Equal(rec, db.Record(index)) {
		return fmt.Errorf("retrieved record does not match the database")
	}
	fmt.Printf("record[%d] = %x… retrieved correctly\n", index, rec[:8])

	// Batched n-server retrieval: every index in one round trip per
	// server.
	indices := []uint64{3, 777, 4095}
	recs, err := cli.RetrieveBatch(ctx, indices)
	if err != nil {
		return err
	}
	for i, idx := range indices {
		if !bytes.Equal(recs[i], db.Record(int(idx))) {
			return fmt.Errorf("batch item %d does not match the database", i)
		}
	}
	fmt.Printf("batch of %d records retrieved in one round trip per server\n\n", len(indices))

	// The price of n-server generality: O(N) bits per server. A share
	// holds one bit per record of the index space the servers announce.
	k0, _, err := impir.GenerateKeys(dbRecords, index)
	if err != nil {
		return err
	}
	shareBytes := cli.NumRecords() / 8
	fmt.Printf("query cost per server: %d B as a share vs %d B as a DPF key (%.0fx)\n",
		shareBytes, k0.WireSize(), float64(shareBytes)/float64(k0.WireSize()))
	fmt.Println("privacy now holds unless ALL three servers collude")
	return nil
}
