// Compromised-credential checking with keyword PIR — no shipped
// directory.
//
// A password manager wants to warn users whose passwords appear in a
// breach corpus — without sending password material (or even its hash) to
// the corpus operator, and without learning patterns from which entry was
// checked. Have-I-Been-Pwned-style services approximate this with
// k-anonymity buckets; PIR gives the exact guarantee (§5.2 of the paper,
// cf. [43, 53]).
//
// Earlier revisions of this example shipped every client a plaintext
// hash→index directory and then did PIR by index. That directory is the
// weak link: it grows linearly with the corpus, must be re-shipped on
// every update, and hands the full corpus fingerprint to every client.
// This version drops it. The operator builds a cuckoo-hashed key→value
// table (impir.BuildKVDB) keyed by credential hash, serves it from two
// non-colluding replicas over TCP, and publishes only the small table
// manifest (bucket geometry + hash seeds — no key material). The client
// then checks all passwords in ONE batched KVClient.GetBatch: a
// constant-shape probe batch from which the servers learn neither the
// hashes nor whether any password was actually breached.
//
//	go run ./examples/credcheck
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"github.com/impir/impir"
	"github.com/impir/impir/internal/database"
)

const (
	corpusSize = 16384
	corpusSeed = 77
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// ——— Operator side: breach corpus → cuckoo table → two replicas ———
	_, breached, err := database.GenerateCredentialDB(corpusSize, corpusSeed)
	if err != nil {
		return err
	}
	pairs := make([]impir.KVPair, len(breached))
	for i, cred := range breached {
		h := database.CredentialHash(cred)
		// Key: the credential hash. Value: per-entry breach metadata —
		// here the corpus entry's own digest, standing in for breach
		// count / first-seen fields a real deployment would store.
		pairs[i] = impir.KVPair{Key: append([]byte(nil), h[:]...), Value: h[:16]}
	}
	db, manifest, err := impir.BuildKVDB(pairs, impir.KVTableOptions{Seed: corpusSeed})
	if err != nil {
		return err
	}

	addrs := make([]string, 2)
	for i := range addrs {
		srv, err := impir.NewServer(impir.ServerConfig{Engine: impir.EngineCPU, Threads: 2})
		if err != nil {
			return err
		}
		defer srv.Close()
		if err := srv.Load(db.Clone()); err != nil {
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
	}
	fmt.Printf("corpus: %d breached credentials in %d+%d buckets (%d-probe lookups); clients receive only the manifest\n",
		corpusSize, manifest.NumBuckets, manifest.StashBuckets, manifest.ProbesPerKey())

	// ——— Client side: one deployment manifest, nothing else ———
	ctx := context.Background()
	kv, err := impir.OpenKV(ctx, impir.FlatDeployment(addrs...).WithKeyword(manifest))
	if err != nil {
		return err
	}
	defer kv.Close()

	// The user's passwords to check: two breached, one safe.
	passwords := []string{breached[1234], "correct horse battery staple", breached[8000]}
	keys := make([][]byte, len(passwords))
	for i, pw := range passwords {
		h := database.CredentialHash(pw)
		keys[i] = append([]byte(nil), h[:]...)
	}

	start := time.Now()
	values, err := kv.GetBatch(ctx, keys)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	for i, pw := range passwords {
		h := database.CredentialHash(pw)
		switch {
		case values[i] == nil:
			fmt.Printf("%-40q not in the corpus — safe\n", clip(pw))
		case bytes.Equal(values[i], h[:16]):
			fmt.Printf("%-40q BREACHED — rotate this password\n", clip(pw))
		default:
			fmt.Printf("%-40q corpus metadata mismatch — treat as breached\n", clip(pw))
		}
	}

	st := kv.Stats()
	fmt.Printf("\nchecked %d credentials in %v (one %d-bucket probe batch per server)\n",
		len(passwords), elapsed.Round(time.Millisecond),
		len(passwords)*manifest.Hashes()+int(manifest.StashBuckets))
	fmt.Printf("client counters: %v\n", st)
	fmt.Println("the corpus operators never saw a password, a hash, which entries were read — or whether anything matched")
	return nil
}

func clip(s string) string {
	if len(s) > 24 {
		return s[:21] + "..."
	}
	return s
}
