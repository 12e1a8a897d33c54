package hostmodel

import (
	"testing"
	"time"
)

func TestPresetsValid(t *testing.T) {
	for _, m := range []Model{CPUPIRBaseline(), PIMHost()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s invalid: %v", m.Name, err)
		}
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	bad := []Model{
		{Threads: 0, AESBlocksPerSecPerThread: 1, ScanBytesPerSecPerThread: 1, AggregateScanBytesPerSec: 1},
		{Threads: 1, AESBlocksPerSecPerThread: 0, ScanBytesPerSecPerThread: 1, AggregateScanBytesPerSec: 1},
		{Threads: 1, AESBlocksPerSecPerThread: 1, ScanBytesPerSecPerThread: -1, AggregateScanBytesPerSec: 1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %d accepted", i)
		}
	}
}

func TestEvalDurationScaling(t *testing.T) {
	m := CPUPIRBaseline()
	one := m.EvalDuration(1<<20, 1)
	double := m.EvalDuration(1<<21, 1)
	if double < one*19/10 || double > one*21/10 {
		t.Errorf("doubling leaves: %v -> %v, want ≈ 2x", one, double)
	}
	fourThreads := m.EvalDuration(1<<20, 4)
	ratio := float64(one) / float64(fourThreads)
	if ratio < 3.9 || ratio > 4.1 {
		t.Errorf("4 threads speedup = %.2f, want ≈ 4", ratio)
	}
	// Thread count is clamped to the machine size.
	clamped := m.EvalDuration(1<<20, 10_000)
	atMax := m.EvalDuration(1<<20, m.Threads)
	if clamped != atMax {
		t.Error("thread count not clamped to machine size")
	}
	if m.EvalDuration(1<<20, 0) != one {
		t.Error("zero threads not treated as one")
	}
}

func TestScanDurationContention(t *testing.T) {
	m := CPUPIRBaseline()
	solo := m.ScanDuration(1<<30, 1)
	contended := m.ScanDuration(1<<30, m.Threads)
	if contended <= solo {
		t.Errorf("contended scan %v not slower than solo %v", contended, solo)
	}
	// Below the saturation point concurrency must not slow a thread down.
	two := m.ScanDuration(1<<30, 2)
	if two != solo {
		t.Errorf("2-way scan %v != solo %v below saturation", two, solo)
	}
}

// TestFusedScanBeatsPerQueryScans: at the paper's batch point (B=8, 8 GiB)
// one fused pass pays the memory stream once, so it must model cheaper
// than eight solo scans.
func TestFusedScanBeatsPerQueryScans(t *testing.T) {
	m := CPUPIRBaseline()
	const dbBytes = 8 << 30
	fused := m.FusedScanDuration(dbBytes, 8, m.Threads)
	if solo := 8 * m.ScanDuration(dbBytes, 1); fused >= solo {
		t.Errorf("fused B=8 scan %v not below 8 solo scans %v", fused, solo)
	}
}

func TestScanDurationCalibration(t *testing.T) {
	// Fig. 3(a): a single-threaded dpXOR over 4 GB lands in seconds.
	m := CPUPIRBaseline()
	got := m.ScanDuration(4<<30, 1)
	if got < time.Second || got > 5*time.Second {
		t.Errorf("4 GB single-thread scan = %v, want 1–5 s (paper ≈ 2–3 s)", got)
	}
	// And dpXOR must dominate Eval by roughly the paper's 5–10x under
	// batch load (Table 1: 83% vs 17%).
	eval := m.EvalDuration(4<<30/32, 1)
	scan := m.ScanDuration(4<<30, m.Threads)
	ratio := scan.Seconds() / eval.Seconds()
	if ratio < 3 || ratio > 12 {
		t.Errorf("dpXOR/Eval ratio = %.1f, want 3–12", ratio)
	}
}

func TestXORFoldDuration(t *testing.T) {
	m := PIMHost()
	d := m.XORFoldDuration(2048, 32)
	if d <= 0 || d > time.Millisecond {
		t.Errorf("folding 2048 subresults = %v, want (0, 1ms]", d)
	}
}

func TestKeyGenDuration(t *testing.T) {
	m := PIMHost()
	gen := m.KeyGenDuration(30)
	if gen <= 0 || gen > 50*time.Microsecond {
		t.Errorf("KeyGen = %v, want microseconds", gen)
	}
	// Gen must be orders of magnitude below Eval (Fig. 3a).
	eval := m.EvalDuration(1<<30, 1)
	if float64(eval)/float64(gen) < 1000 {
		t.Errorf("Eval/Gen = %.0f, want ≥ 1000x", float64(eval)/float64(gen))
	}
}
