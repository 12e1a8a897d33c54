package impir

import (
	"testing"

	"github.com/impir/impir/internal/pim"
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
	srv, err := NewServer(ServerConfig{
		Engine:      EnginePIM,
		DPUs:        32,
		Clusters:    2,
		Tasklets:    12,
		EvalWorkers: 4,
	})
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
	if _, err := NewServer(ServerConfig{Engine: EnginePIM, Tasklets: 99}); err == nil {
		t.Error("tasklet count beyond hardware accepted")
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
