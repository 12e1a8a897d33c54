// Certificate Transparency auditing over a real TCP deployment.
//
// A CT auditor wants to check that a certificate it was served appears in
// a public CT log — but asking the log operator for "the leaf hash at
// index i" reveals which site the auditor visited. With two-server PIR
// the auditor retrieves the leaf hash without either log mirror learning
// which certificate is being audited (the §5.2 use case, cf. [51, 58]).
//
// This example starts two PIR servers on loopback TCP, each independently
// synthesising the same CT log, then audits two certificates: one honest
// (hash matches) and one tampered (hash mismatch → alarm).
//
//	go run ./examples/certtransparency
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"

	"github.com/impir/impir"
	"github.com/impir/impir/internal/database"
)

const (
	logSize = 8192
	logSeed = 2025
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- Log mirrors (in reality: two independent operators) ---
	addr0, stop0, err := startMirror(0)
	if err != nil {
		return err
	}
	defer stop0()
	addr1, stop1, err := startMirror(1)
	if err != nil {
		return err
	}
	defer stop1()

	// --- Auditor ---
	// The auditor knows the log's contents schema: it has the certificate
	// (and therefore can recompute its leaf hash) and the log index from
	// the SCT (signed certificate timestamp).
	_, entries, err := database.GenerateCTLog(logSize, logSeed)
	if err != nil {
		return err
	}

	ctx := context.Background()
	// One deployment manifest names both non-colluding mirrors; Open
	// returns the unified Store surface over it.
	cli, err := impir.Open(ctx, impir.FlatDeployment(addr0, addr1))
	if err != nil {
		return err
	}
	defer cli.Close()
	fmt.Printf("connected to both log mirrors: %d entries, replicas verified\n\n",
		cli.NumRecords())

	// Audit 1: an honest certificate.
	const honestIdx = 4242
	cert := entries[honestIdx]
	fmt.Printf("auditing %q (serial %d) at log index %d…\n", cert.Domain, cert.SerialNumber, honestIdx)
	leaf, err := cli.Retrieve(ctx, uint64(honestIdx))
	if err != nil {
		return err
	}
	want := cert.LeafHash()
	if bytes.Equal(leaf, want[:]) {
		fmt.Printf("  leaf hash %x… matches — certificate is logged ✓\n\n", leaf[:8])
	} else {
		return fmt.Errorf("honest certificate failed its audit")
	}

	// Audit 2: a tampered certificate (wrong issuer claimed).
	tampered := entries[100]
	tampered.Issuer = "CN=Totally Legit CA"
	fmt.Printf("auditing tampered record for %q…\n", tampered.Domain)
	leaf, err = cli.Retrieve(ctx, 100)
	if err != nil {
		return err
	}
	forged := tampered.LeafHash()
	if !bytes.Equal(leaf, forged[:]) {
		fmt.Printf("  leaf hash mismatch — tampering detected ✓\n\n")
	} else {
		return fmt.Errorf("tampered certificate passed its audit")
	}

	fmt.Println("neither mirror learned which certificates were audited")
	return nil
}

// startMirror launches one PIR server with its replica of the CT log.
func startMirror(party uint8) (addr string, stop func(), err error) {
	db, _, err := database.GenerateCTLog(logSize, logSeed)
	if err != nil {
		return "", nil, err
	}
	srv, err := impir.NewServer(impir.ServerConfig{Engine: impir.EnginePIM, DPUs: 16})
	if err != nil {
		return "", nil, err
	}
	if err := srv.Load(db); err != nil {
		srv.Close()
		return "", nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	if err := srv.Serve(lis, party); err != nil {
		srv.Close()
		return "", nil, err
	}
	fmt.Printf("log mirror %d (%s engine) on %s\n", party, srv.EngineName(), srv.Addr())
	return srv.Addr().String(), func() { srv.Close() }, nil
}
