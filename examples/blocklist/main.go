// Private blocklist lookups with keyword PIR — no shipped directory.
//
// A browser checking visited URLs against a malware blocklist leaks its
// browsing history to the blocklist provider unless lookups are private
// (the Checklist use case [60], cited in §1 of the paper). Earlier
// revisions of this example shipped the browser a plaintext url→index
// directory and retrieved entries by index; the directory itself both
// scaled with the blocklist and disclosed the full list of blocked URLs
// to every client. This version drops it: the provider builds a
// cuckoo-hashed key→value table keyed by URL hash (value: the threat
// category), serves it from two non-colluding replicas over TCP, and
// clients look URLs up with KVClient.Get — a constant-shape probe batch
// per URL from which the servers learn neither the URL nor whether it
// was blocklisted at all.
//
//	go run ./examples/blocklist
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"

	"github.com/impir/impir"
	"github.com/impir/impir/internal/database"
)

const (
	blocklistSize = 8192
	blocklistSeed = 13
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// ——— Provider side: blocklist → cuckoo table → two replicas ———
	_, urls, err := database.GenerateBlocklist(blocklistSize, blocklistSeed)
	if err != nil {
		return err
	}
	categories := []string{"malware", "phishing", "c2", "scam"}
	pairs := make([]impir.KVPair, len(urls))
	for i, u := range urls {
		h := database.CredentialHash(u)
		pairs[i] = impir.KVPair{
			Key:   append([]byte(nil), h[:]...),
			Value: []byte(categories[i%len(categories)]),
		}
	}
	db, manifest, err := impir.BuildKVDB(pairs, impir.KVTableOptions{Seed: blocklistSeed})
	if err != nil {
		return err
	}

	addrs := make([]string, 2)
	for i := range addrs {
		srv, err := impir.NewServer(impir.ServerConfig{Engine: impir.EnginePIM, DPUs: 16})
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
	fmt.Printf("blocklist: %d URLs in %d+%d buckets; clients receive only the table manifest\n",
		blocklistSize, manifest.NumBuckets, manifest.StashBuckets)

	// ——— Browser side: one deployment manifest is all a browser ships ———
	ctx := context.Background()
	kv, err := impir.OpenKV(ctx, impir.FlatDeployment(addrs...).WithKeyword(manifest))
	if err != nil {
		return err
	}
	defer kv.Close()

	visited := []string{
		urls[4321], // malicious
		"https://example.org/totally-fine",
		urls[17], // malicious
	}
	for _, u := range visited {
		h := database.CredentialHash(u)
		category, err := kv.Get(ctx, h[:])
		switch {
		case errors.Is(err, impir.ErrNotFound):
			fmt.Printf("%-45s not blocklisted\n", clip(u))
		case err != nil:
			return err
		default:
			fmt.Printf("%-45s BLOCKED (%s)\n", clip(u), category)
		}
	}

	fmt.Printf("\nclient counters: %v\n", kv.Stats())
	fmt.Println("no server learned which URLs were visited — or whether any was blocked")
	return nil
}

func clip(s string) string {
	if len(s) > 42 {
		return s[:39] + "..."
	}
	return s
}
