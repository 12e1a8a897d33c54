package impir

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/impir/impir/internal/pim"
	"github.com/impir/impir/internal/transport"
)

func TestShrinkPIM(t *testing.T) {
	base := pim.DefaultConfig() // 32 ranks × 64 DPUs

	small := shrinkPIM(base, 8)
	if small.NumDPUs() < 8 {
		t.Fatalf("shrinkPIM(8) yields %d DPUs", small.NumDPUs())
	}
	if small.Ranks != 1 || small.DPUsPerRank != 8 {
		t.Fatalf("shrinkPIM(8) = %d ranks × %d", small.Ranks, small.DPUsPerRank)
	}

	mid := shrinkPIM(base, 130)
	if mid.NumDPUs() < 130 {
		t.Fatalf("shrinkPIM(130) yields %d DPUs", mid.NumDPUs())
	}
	if mid.DPUsPerRank != 64 || mid.Ranks != 3 {
		t.Fatalf("shrinkPIM(130) = %d ranks × %d", mid.Ranks, mid.DPUsPerRank)
	}
	if err := mid.Validate(); err != nil {
		t.Fatalf("shrunk config invalid: %v", err)
	}
}

func TestServerConfigKnobs(t *testing.T) {
	srv, err := NewServer(ServerConfig{Engine: EnginePIM, DPUs: 32, Clusters: 2})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	if srv.EngineName() != "IM-PIR" {
		t.Errorf("EngineName = %q", srv.EngineName())
	}
	if srv.Database() != nil {
		t.Error("Database non-nil before Load")
	}
	if srv.Addr() != nil {
		t.Error("Addr non-nil before Serve")
	}

	// Invalid knob combinations must surface.
	if _, err := NewServer(ServerConfig{Engine: EnginePIM, DPUs: 10, Clusters: 3}); err == nil {
		t.Error("non-divisible clusters accepted")
	}
	if _, err := NewServer(ServerConfig{Engine: EngineKind(42)}); err == nil {
		t.Error("unknown engine kind accepted")
	}
	if _, err := NewServer(ServerConfig{Engine: EngineCPU, Threads: -2}); err == nil {
		t.Error("negative CPU threads accepted")
	}
	if _, err := NewServer(ServerConfig{Engine: EngineCPU, QueueDepth: -1}); err == nil {
		t.Error("negative queue depth accepted")
	}
	if _, err := NewServer(ServerConfig{Engine: EngineCPU, MaxCoalesce: -1}); err == nil {
		t.Error("negative coalesce cap accepted")
	}
}

func TestZeroConfigIsPaperSetup(t *testing.T) {
	srv, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatalf("zero-config NewServer: %v", err)
	}
	defer srv.Close()
	if srv.EngineName() != "IM-PIR" {
		t.Fatalf("zero config engine = %q, want IM-PIR", srv.EngineName())
	}
}

// TestServerHoldsUnpaddedRecords pins a server loaded with 700 × 32 B:
// it holds exactly those records, while its hello describes the padded
// 1024-record index space clients address — the digest included — so
// an index in the padding retrieves zeros and an update there is
// refused, naming the 700 records.
func TestServerHoldsUnpaddedRecords(t *testing.T) {
	db, err := GenerateHashDB(700, 5)
	if err != nil {
		t.Fatal(err)
	}
	addrs, servers := startShardCohort(t, db, 2)
	if got := len(servers[0].Database().Data()); got != 700*32 {
		t.Fatalf("server holds %d bytes, want %d", got, 700*32)
	}
	ctx := context.Background()
	conn, err := transport.Dial(ctx, addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	info := conn.Info()
	if info.Domain != 10 || info.NumRecords != 1024 || info.Digest != db.PadToPowerOfTwo().Digest() {
		t.Fatalf("hello = domain %d, %d records, digest %x; want 10, 1024, the padded digest",
			info.Domain, info.NumRecords, info.Digest[:4])
	}

	store, err := Open(ctx, FlatDeployment(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	zero := make([]byte, 32)
	if rec, err := store.Retrieve(ctx, 800); err != nil || !bytes.Equal(rec, zero) {
		t.Fatalf("Retrieve(800) = %x, %v; want zeros", rec, err)
	}
	if rec, err := store.Retrieve(ctx, 699); err != nil || !bytes.Equal(rec, db.Record(699)) {
		t.Fatalf("Retrieve(699) = %x, %v", rec, err)
	}
	fresh := bytes.Repeat([]byte{0xAB}, 32)
	if err := servers[0].Update(map[uint64][]byte{800: fresh}); err == nil || !strings.Contains(err.Error(), "700") {
		t.Fatalf("Update(800) = %v, want a refusal naming the 700 records", err)
	}
	if err := store.Update(ctx, map[uint64][]byte{800: fresh}); err == nil {
		t.Fatal("client Update(800) accepted")
	}
	if rec, err := store.Retrieve(ctx, 800); err != nil || !bytes.Equal(rec, zero) {
		t.Fatalf("Retrieve(800) after the refused update = %x, %v; want zeros", rec, err)
	}
}
