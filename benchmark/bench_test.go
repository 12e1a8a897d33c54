package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

const manifestPath = "../BENCHMARK.json"

func loadManifest(t *testing.T) manifest {
	t.Helper()
	var man manifest
	if err := readJSON(manifestPath, &man); err != nil {
		t.Fatal(err)
	}
	return man
}

// TestManifestMatchesProgram keeps BENCHMARK.json and the program's own
// tables in step: same workloads, same metrics, same units and
// directions, all names within the contract's alphabet.
func TestManifestMatchesProgram(t *testing.T) {
	man := loadManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := man.Workloads[i]
		if got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: name or why outside the contract", w.name)
		}
	}
	check := func(kind string, listed []manifestMetric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program emits %d", kind, len(listed), len(defs))
		}
		for i, def := range defs {
			got := listed[i]
			if got.Name != def.name || got.Unit != def.unit || got.Better != def.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got, def)
			}
			if !name.MatchString(def.name) {
				t.Errorf("%s metric %q: name outside the contract", kind, def.name)
			}
		}
	}
	check("end_to_end", man.EndToEnd, endToEnd)
	check("per_layer", man.PerLayer, perLayer)
	for _, m := range man.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestSmoke runs every workload in both modes on a ≤ 256-record
// database for a fraction of a second. It asserts what the harness
// promises — every declared metric emitted, no failed op, a parseable
// trace with every rung present — and nothing about how long anything
// took.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	out := t.TempDir()
	for _, full := range workloads {
		w := full.smoke()
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := runOne(ctx, w, 1, 250*time.Millisecond, traced, out)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("traced=%v: correct %v, %d attempted, %d failed", traced, res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics emitted, %d declared", traced, len(res.Metrics), len(defs))
				}
				for _, def := range defs {
					m, ok := res.Metrics[def.name]
					if !ok || m.Unit != def.unit {
						t.Errorf("traced=%v: metric %s missing or in unit %q, want %q", traced, def.name, m.Unit, def.unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", def.name, m.Value)
					}
				}
			}
			checkTrace(t, filepath.Join(out, "trace-"+w.name+".json"), w.kvPairs > 0)
		})
	}
}

// checkTrace parses a written trace and requires at least one span on
// every rung of the ladder, each linked to a parent of its own trace.
func checkTrace(t *testing.T, path string, keyword bool) {
	t.Helper()
	var file struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	rungs := []string{"op", "client.keygen", "transport.query", "server.answer", "dpf.evalfull", "xorop.scan", "client.reconstruct"}
	if keyword {
		rungs = append(rungs, "store.retrieve_batch", "batchcode.plan")
	}
	seen := map[string]int{}
	byID := map[int]span{}
	for _, s := range file.Spans {
		byID[s.ID] = s
	}
	for _, s := range file.Spans {
		rung, _, _ := strings.Cut(s.Name, "[")
		seen[rung]++
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if rung == "op" {
			if s.Parent != 0 {
				t.Errorf("root span %d has parent %d", s.ID, s.Parent)
			}
		} else if p, ok := byID[s.Parent]; !ok || p.Trace != s.Trace {
			t.Errorf("span %d (%s) has no parent in its trace", s.ID, s.Name)
		}
	}
	for _, rung := range rungs {
		if seen[rung] == 0 {
			t.Errorf("%s: no %s span", path, rung)
		}
	}
}

// TestSelfCheckCatchesCorruption: the verifier must fail when the
// benchmark's copy and the servers' data disagree.
func TestSelfCheckCatchesCorruption(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"point_small", "kv_sharded_mixed"} {
		w, _ := findWorkload(name)
		d, err := setup(ctx, w.smoke(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.selfCheck(ctx, 1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// A corruption that stays must turn into failed, incorrect ops.
		if d.kv != nil {
			for _, v := range d.shadow {
				v[0] ^= 1
			}
		} else {
			for i := range d.db.Data() {
				d.db.Data()[i] ^= 1
			}
		}
		rd := d.closedRound(ctx, newRNG(1, streamRounds), 50*time.Millisecond)
		if rd.mismatched == 0 || rd.failed != rd.mismatched {
			t.Errorf("%s: %d attempted against a corrupted copy, %d failed, %d mismatched", name, rd.attempted, rd.failed, rd.mismatched)
		}
		d.close()
	}
}

func TestCompare(t *testing.T) {
	man := loadManifest(t)
	base := result{Correct: true, Attempted: 100, Metrics: map[string]metric{}}
	for _, def := range man.EndToEnd {
		base.Metrics[def.Name] = metric{Value: 100, Unit: def.Unit, Spread: 1}
	}
	write := func(name string, res result) string {
		path := filepath.Join(t.TempDir(), name)
		data, err := json.Marshal(resultFile{Workloads: map[string]map[string]result{"point_small": {"end_to_end": res}}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", base)
	if err := compareFiles(manifestPath, a, a); err != nil {
		t.Errorf("a run compared with itself: %v", err)
	}

	slower := result{Correct: true, Attempted: 100, Metrics: map[string]metric{}}
	for name, m := range base.Metrics {
		slower.Metrics[name] = m
	}
	slower.Metrics["qps"] = metric{Value: 60, Unit: "1/s", Spread: 1}
	if err := compareFiles(manifestPath, a, write("b.json", slower)); err == nil {
		t.Error("a 40% qps loss passed the comparison")
	}

	noisy := result{Correct: true, Attempted: 100, Metrics: map[string]metric{}}
	for name, m := range slower.Metrics {
		noisy.Metrics[name] = m
	}
	noisy.Metrics["qps"] = metric{Value: 60, Unit: "1/s", Spread: 40}
	if err := compareFiles(manifestPath, a, write("c.json", noisy)); err != nil {
		t.Errorf("a pairing noisier than its bound must read unresolved, not worse: %v", err)
	}
}

func TestIQRMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(v, n=4) → [1.5, 3.0, 4.5] and [3.5, 24.0, 160.0].
	if got := iqr([]float64{5, 1, 4, 2, 3}); got != 3 {
		t.Errorf("iqr of 1..5 = %v, want 3", got)
	}
	if got := iqr([]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}); got != 156.5 {
		t.Errorf("iqr of the powers of two = %v, want 156.5", got)
	}
}
