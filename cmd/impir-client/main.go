// Command impir-client privately retrieves records from an IM-PIR
// deployment. The unified entry point is a deployment manifest — one
// JSON file describing any topology (flat pairs, shards, replica sets
// per party, keyword tables), driven through impir.Open:
//
//	impir-client -deployment deployment.json -index 123
//	impir-client -deployment deployment.json -index 5,9,1000        # batched
//	impir-client -deployment kv-deployment.json get key-00000123    # keyword section
//
// Hedging across each party's replica set is on by default (first
// valid answer per party wins); -no-hedge disables it and -retries
// grants a transient-failure retry budget.
//
// The pre-manifest flags remain for quick experiments: -servers for a
// flat deployment, -kv for a keyword table — each equivalent to the
// corresponding deployment manifest:
//
//	impir-client -servers 127.0.0.1:7100,127.0.0.1:7101 -index 123
//	impir-client -servers a:7100,b:7100,c:7100 -index 123   # 3-server shares
//	impir-client -servers a:7100,b:7100 -kv table.json get key-00000123
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/impir/impir"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "impir-client:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		deploymentPath = flag.String("deployment", "",
			"unified deployment manifest JSON; drives any topology (replaces -servers/-kv)")
		servers = flag.String("servers", "127.0.0.1:7100,127.0.0.1:7101",
			"comma-separated addresses of the non-colluding servers (≥ 2)")
		indexFlag = flag.String("index", "0", "record index (or comma-separated indices) to retrieve")
		kvPath    = flag.String("kv", "",
			"keyword-table manifest JSON; switches to key→value mode: impir-client -kv table.json get <key> [key...]")
		encoding = flag.String("encoding", "auto",
			"query encoding: auto, dpf (2 servers), or shares (any n)")
		timeout = flag.Duration("timeout", 30*time.Second, "overall deadline for connect and retrieval")
		retries = flag.Int("retries", 0, "extra whole-operation attempts after transient failures")
		noHedge = flag.Bool("no-hedge", false, "disable hedged fan-out across replica sets")
		trace   = flag.Bool("trace", false,
			"trace the retrieval and print the span tree JSON (per-shard, per-party, per-attempt timings; each server receives only its own fresh span ID)")
	)
	flag.Parse()

	enc, err := impir.ParseEncoding(*encoding)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	opts := []impir.ClientOption{
		impir.WithEncoding(enc),
		impir.WithDefaultCallOptions(
			impir.WithRetries(*retries),
			impir.WithHedging(!*noHedge),
		),
	}
	var observer *impir.Observer
	if *trace {
		observer = impir.NewObserver(impir.ObserverConfig{SampleRate: 1})
		opts = append(opts, observer.Option())
	}

	// Resolve whatever flags were given into one deployment manifest —
	// the unified path every topology goes through.
	var d impir.Deployment
	switch {
	case *deploymentPath != "":
		if d, err = impir.LoadDeployment(*deploymentPath); err != nil {
			return err
		}
	default:
		addrs := parseAddrs(*servers)
		if len(addrs) < 2 {
			return fmt.Errorf("need at least two server addresses, got %d", len(addrs))
		}
		d = impir.FlatDeployment(addrs...)
	}
	if *kvPath != "" {
		m, err := impir.LoadKVManifest(*kvPath)
		if err != nil {
			return err
		}
		d = d.WithKeyword(m)
	}

	if d.Keyword != nil {
		return runKV(ctx, d, opts, observer, flag.Args())
	}

	indices, err := parseIndices(*indexFlag)
	if err != nil {
		return err
	}
	store, err := impir.Open(ctx, d, opts...)
	if err != nil {
		return err
	}
	defer store.Close()
	fmt.Printf("connected: %d shard(s), %d records × %d bytes, replicas verified per cohort\n",
		d.NumShards(), store.NumRecords(), store.RecordSize())

	start := time.Now()
	var records [][]byte
	if len(indices) == 1 {
		rec, err := store.Retrieve(ctx, indices[0])
		if err != nil {
			return err
		}
		records = [][]byte{rec}
	} else {
		records, err = store.RetrieveBatch(ctx, indices)
		if err != nil {
			return err
		}
	}
	elapsed := time.Since(start)

	for i, rec := range records {
		fmt.Printf("record[%d] = %x\n", indices[i], rec)
	}
	fmt.Printf("%d record(s) in %v (no server learned which)\n", len(records), elapsed.Round(time.Millisecond))
	if st := store.Stats(); st.Hedges > 0 {
		fmt.Printf("hedging: %d hedge(s), %d won\n", st.Hedges, st.HedgeWins)
	}
	printTraces(observer)
	return nil
}

// printTraces dumps the observer's span trees as indented JSON — the
// whole point of -trace is reading them.
func printTraces(observer *impir.Observer) {
	if observer == nil {
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(observer.RecentTraces(0))
}

// runKV executes a keyword-store operation: `get <key> [key...]`
// against the deployment's keyword table. A present key prints its
// value; an absent key is an error — which only the client learns, the
// servers saw the same constant-shape probe either way.
func runKV(ctx context.Context, d impir.Deployment, opts []impir.ClientOption, observer *impir.Observer, args []string) error {
	if len(args) < 2 || args[0] != "get" {
		return fmt.Errorf("keyword mode usage: impir-client -deployment kv-deployment.json get <key> [key...]")
	}
	kv, err := impir.OpenKV(ctx, d, opts...)
	if err != nil {
		return err
	}
	defer kv.Close()
	fmt.Printf("connected to keyword store: %d shard(s), %d buckets (%d-probe lookups)\n",
		d.NumShards(), d.Keyword.TotalBuckets(), kv.ProbesPerKey())

	keys := make([][]byte, len(args[1:]))
	for i, a := range args[1:] {
		keys[i] = []byte(a)
	}
	start := time.Now()
	vals, err := kv.GetBatch(ctx, keys)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	missing := 0
	for i, v := range vals {
		if v == nil {
			fmt.Printf("%s: not found\n", keys[i])
			missing++
		} else {
			fmt.Printf("%s = %x\n", keys[i], v)
		}
	}
	fmt.Printf("%d key(s) in %v (no server learned the keys — or whether they exist)\n",
		len(keys), elapsed.Round(time.Millisecond))
	printTraces(observer)
	if missing > 0 {
		return fmt.Errorf("%d of %d key(s) not found", missing, len(keys))
	}
	return nil
}

func parseAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func parseIndices(s string) ([]uint64, error) {
	parts := strings.Split(s, ",")
	out := make([]uint64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad index %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}
