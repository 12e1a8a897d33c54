package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// manifest is the part of BENCHMARK.json the program reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles judges result file b against a, per end-to-end metric
// and workload, by the bounds in the BENCHMARK.json at manifestPath: "worse" is b beyond
// a by more than the bound, "unresolved" is a pairing whose own
// round-to-round spread on either side exceeds the bound, so the
// comparison cannot tell. Any "worse" makes the error non-nil.
func compareFiles(manifestPath, pathA, pathB string) error {
	var man manifest
	if err := readJSON(manifestPath, &man); err != nil {
		return err
	}
	var a, b resultFile
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	if a.Fingerprint != b.Fingerprint || a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Printf("note: runs differ in machine, toolchain, seed or length:\n  %+v seed %d %gs\n  %+v seed %d %gs\n",
			a.Fingerprint, a.Seed, a.Seconds, b.Fingerprint, b.Seed, b.Seconds)
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)

	worse := 0
	fmt.Printf("%-18s %-14s %12s %12s %9s %7s  %s\n", "workload", "metric", "a", "b", "delta", "bound", "verdict")
	for _, name := range names {
		ra, rb := a.Workloads[name]["end_to_end"], b.Workloads[name]["end_to_end"]
		if rb.Failed > ra.Failed {
			worse++
			fmt.Printf("%-18s ops_failed rose from %d to %d\n", name, ra.Failed, rb.Failed)
		}
		for _, def := range man.EndToEnd {
			ma, okA := ra.Metrics[def.Name]
			mb, okB := rb.Metrics[def.Name]
			if !okA || !okB || ma.Value == 0 {
				return fmt.Errorf("%s: metric %s missing or zero in a result file", name, def.Name)
			}
			delta := (mb.Value - ma.Value) / ma.Value // > 0: b reads higher
			if def.Better == "higher" {
				delta = -delta
			}
			verdict := "ok"
			switch {
			case ma.Spread/ma.Value > def.Bound || mb.Spread/mb.Value > def.Bound:
				verdict = "unresolved"
			case delta > def.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Printf("%-18s %-14s %12.5g %12.5g %+8.1f%% %6.0f%%  %s\n",
				name, def.Name, ma.Value, mb.Value, 100*delta, 100*def.Bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d pairing(s) outside their bound", worse)
	}
	return nil
}
