// Sharded PIR: horizontal partitioning across server cohorts.
//
// IM-PIR's all-for-one principle makes every query a linear scan of the
// whole replica, so a single server pair caps out at one machine's
// memory bandwidth. This example scales *across* boxes instead: the
// database is carved into contiguous row-range shards, each served by
// its own cohort of two non-colluding replicas, and the client queries
// EVERY cohort on every retrieval — the real sub-query on the
// owning shard, a well-formed dummy elsewhere — so each cohort sees a
// valid PIR query regardless of the target and learns nothing about
// which shard mattered. Per-shard scan work falls by the shard factor;
// retrieval latency is the slowest shard, not the sum.
//
// The example runs a 2-shard × 2-replica deployment over loopback TCP,
// retrieves records from both shards, issues a batch that straddles the
// shard boundary, then routes a live update to the single cohort that
// owns the dirty row (riding the server-side epoch quiescing) and reads
// it back. The deployment JSON printed at the end is exactly what
// impir-server -deployment / impir-client -deployment consume.
//
//	go run ./examples/sharded
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
	numRecords = 4096
	dbSeed     = 21
	shards     = 2
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	db, err := impir.GenerateHashDB(numRecords, dbSeed)
	if err != nil {
		return err
	}

	// Carve the database into contiguous row-range shards and serve each
	// shard from its own two-replica cohort.
	parts, err := impir.SplitDB(db, shards)
	if err != nil {
		return err
	}
	cohorts := make([][]string, shards)
	for s, part := range parts {
		cohorts[s] = make([]string, 2)
		for r := 0; r < 2; r++ {
			// AllowWireUpdates lets this demo route updates from the
			// client; real deployments restrict the update path
			// to the database owner (see ServerConfig.AllowWireUpdates).
			srv, err := impir.NewServer(impir.ServerConfig{Engine: impir.EngineCPU, AllowWireUpdates: true})
			if err != nil {
				return err
			}
			defer srv.Close()
			if err := srv.Load(part.Clone()); err != nil {
				return err
			}
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			if err := srv.Serve(lis, uint8(r)); err != nil {
				return err
			}
			cohorts[s][r] = srv.Addr().String()
		}
		fmt.Printf("shard %d: %d records on cohort %v\n", s, part.NumRecords(), cohorts[s])
	}

	// The deployment manifest lists each shard's row range and cohort;
	// Open drives the whole cluster as one logical Store.
	d, err := impir.UniformManifest(uint64(db.NumRecords()), db.RecordSize(), cohorts)
	if err != nil {
		return err
	}
	store, err := impir.Open(ctx, d)
	if err != nil {
		return err
	}
	defer store.Close()
	cc := store.(*impir.Client) // every deployment opens as *Client
	fmt.Printf("cluster: %d shards, %d records × %d bytes\n\n", cc.Shards(), cc.NumRecords(), cc.RecordSize())

	// Retrieve one record from each shard: every cohort receives a
	// sub-query both times, so neither learns which retrieval it served.
	for _, idx := range []uint64{100, 3000} {
		rec, err := cc.Retrieve(ctx, idx)
		if err != nil {
			return err
		}
		if !bytes.Equal(rec, db.Record(int(idx))) {
			return fmt.Errorf("record %d mismatch", idx)
		}
		fmt.Printf("record[%d] = %x… ✓\n", idx, rec[:8])
	}

	// A batch straddling the shard boundary: both cohorts see a batch of
	// identical shape.
	straddle := []uint64{2046, 2047, 2048, 2049}
	recs, err := cc.RetrieveBatch(ctx, straddle)
	if err != nil {
		return err
	}
	for i, idx := range straddle {
		if !bytes.Equal(recs[i], db.Record(int(idx))) {
			return fmt.Errorf("batch record %d mismatch", idx)
		}
	}
	fmt.Printf("batch %v straddling the shard boundary ✓\n", straddle)

	// Live update, routed: only record 3000's owning cohort is
	// contacted; the update applies under epoch quiescing and is visible
	// to the next retrieval.
	fresh := bytes.Repeat([]byte{0x5A}, db.RecordSize())
	if err := cc.Update(ctx, map[uint64][]byte{3000: fresh}); err != nil {
		return err
	}
	rec, err := cc.Retrieve(ctx, 3000)
	if err != nil {
		return err
	}
	if !bytes.Equal(rec, fresh) {
		return fmt.Errorf("update not visible")
	}
	fmt.Printf("update routed to shard 1's cohort only, visible on re-read ✓\n\n")

	fmt.Printf("per-shard stats: %v\n\n", cc.Stats())

	deploymentJSON, err := d.JSON()
	if err != nil {
		return err
	}
	fmt.Printf("deployment.json (for impir-server/impir-client -deployment):\n%s\n", deploymentJSON)
	return nil
}
