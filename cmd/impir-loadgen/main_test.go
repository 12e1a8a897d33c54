package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/impir/impir/internal/loadgen"
)

// shortProfile is a sub-second selfserve run for CLI tests.
func shortProfile(extra ...string) []string {
	args := []string{
		"-selfserve", "-records", "512", "-engine", "cpu",
		"-qps", "150", "-duration", "800ms", "-warmup", "200ms",
		"-interval", "0", "-clients", "8", "-workers", "16", "-conns", "2",
		"-seed", "7",
	}
	return append(args, extra...)
}

// TestSelfserveJSONArtifact: one selfserve run must emit a parseable
// artifact carrying the schema tag, the full fingerprint, the load
// accounting, and — because selfserve runs the servers in-process — the
// per-server scheduler deltas.
func TestSelfserveJSONArtifact(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(shortProfile("-json"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	var res loadgen.Result
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatalf("artifact not parseable: %v\n%s", err, stdout.String())
	}
	if res.Schema != loadgen.ResultSchema {
		t.Errorf("schema %q", res.Schema)
	}
	fp := res.Fingerprint
	if fp.Workload != "index" || fp.QPS != 150 || fp.Clients != 8 || fp.Conns != 2 || fp.Records == 0 {
		t.Errorf("fingerprint incomplete: %+v", fp)
	}
	if res.Counts.Offered == 0 || res.Counts.OK == 0 {
		t.Errorf("no load recorded: %+v", res.Counts)
	}
	if res.Latency.P99 <= 0 {
		t.Errorf("no latency distribution: %+v", res.Latency)
	}
	if res.Servers == nil || len(res.Servers.PerServer) != 5 {
		t.Fatalf("selfserve artifact missing the 5 per-server scheduler deltas: %+v", res.Servers)
	}
	if res.Servers.Aggregate.Submitted == 0 {
		t.Errorf("server-side scheduler deltas empty: %+v", res.Servers.Aggregate)
	}
}

// TestSelfserveTracesOnlyMeasuredWindow: with every operation sampled,
// the artifact's trace summaries describe the measured window that
// counts and latency describe, so warmup operations' traces stay out
// and there are at most as many traces as offered operations.
func TestSelfserveTracesOnlyMeasuredWindow(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := shortProfile("-json", "-workload", "mixed", "-qps", "100", "-duration", "1s", "-trace-sample", "1")
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	var res loadgen.Result
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatalf("artifact not parseable: %v\n%s", err, stdout.String())
	}
	if res.WarmupOps == 0 || res.Counts.Offered == 0 {
		t.Fatalf("run without a warmup and a measured window: warmup %d ops, %+v", res.WarmupOps, res.Counts)
	}
	if len(res.Traces) == 0 || uint64(len(res.Traces)) > res.Counts.Offered {
		t.Fatalf("%d trace summaries for %d offered operations (%d warmup operations)",
			len(res.Traces), res.Counts.Offered, res.WarmupOps)
	}
}

func TestBadInvocations(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nonsense", "-selfserve"}, &out, &errOut); code != 2 {
		t.Errorf("unknown workload exited %d, want 2", code)
	}
	if code := run([]string{"-qps", "100"}, &out, &errOut); code != 2 {
		t.Errorf("missing deployment exited %d, want 2", code)
	}
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag exited %d, want 2", code)
	}
}
