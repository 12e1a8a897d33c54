package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestPhaseNames(t *testing.T) {
	want := map[Phase]string{
		PhaseGen:        "Gen",
		PhaseEval:       "Eval",
		PhaseCopyToPIM:  "copy(cpu→pim)",
		PhaseDpXOR:      "dpXOR",
		PhaseCopyToHost: "copy(pim→cpu)",
		PhaseAggregate:  "aggregation",
	}
	for p, name := range want {
		if p.String() != name {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), name)
		}
	}
	if Phase(99).String() == "" {
		t.Error("unknown phase produced empty string")
	}
	if len(Phases()) != NumPhases {
		t.Errorf("Phases() has %d entries, want %d", len(Phases()), NumPhases)
	}
}

func TestBreakdownAccumulation(t *testing.T) {
	var b Breakdown
	b.AddPhase(PhaseEval, 10*time.Millisecond, 20*time.Millisecond)
	b.AddPhase(PhaseDpXOR, 5*time.Millisecond, 60*time.Millisecond)
	b.AddPhase(PhaseEval, 10*time.Millisecond, 20*time.Millisecond)

	if b.TotalWall() != 25*time.Millisecond {
		t.Errorf("TotalWall = %v", b.TotalWall())
	}
	if b.TotalModeled() != 100*time.Millisecond {
		t.Errorf("TotalModeled = %v", b.TotalModeled())
	}
	if share := b.ModeledShare(PhaseEval); share != 0.4 {
		t.Errorf("ModeledShare(Eval) = %v, want 0.4", share)
	}
	if share := b.ModeledShare(PhaseGen); share != 0 {
		t.Errorf("ModeledShare(Gen) = %v, want 0", share)
	}
}

func TestBreakdownAdd(t *testing.T) {
	var a, b Breakdown
	a.AddPhase(PhaseEval, time.Second, 2*time.Second)
	b.AddPhase(PhaseEval, time.Second, time.Second)
	b.AddPhase(PhaseAggregate, time.Millisecond, time.Millisecond)
	a.Add(b)
	if a.Wall[PhaseEval] != 2*time.Second || a.Modeled[PhaseEval] != 3*time.Second {
		t.Errorf("Add mis-accumulated eval: %+v", a)
	}
	if a.Modeled[PhaseAggregate] != time.Millisecond {
		t.Error("Add dropped aggregate phase")
	}
}

func TestBreakdownScale(t *testing.T) {
	var b Breakdown
	b.AddPhase(PhaseEval, 10*time.Millisecond, 30*time.Millisecond)
	s := b.Scale(3)
	if s.Modeled[PhaseEval] != 10*time.Millisecond {
		t.Errorf("Scale(3) modeled = %v", s.Modeled[PhaseEval])
	}
	// Scale by non-positive returns unchanged values.
	s0 := b.Scale(0)
	if s0.Modeled[PhaseEval] != 30*time.Millisecond {
		t.Error("Scale(0) mutated breakdown")
	}
}

func TestEmptyBreakdownShares(t *testing.T) {
	var b Breakdown
	if b.ModeledShare(PhaseEval) != 0 {
		t.Error("empty breakdown has nonzero share")
	}
	if b.String() != "" {
		t.Errorf("empty breakdown String() = %q", b.String())
	}
}

func TestBreakdownString(t *testing.T) {
	var b Breakdown
	b.AddPhase(PhaseDpXOR, time.Millisecond, 2*time.Millisecond)
	if !strings.Contains(b.String(), "dpXOR") {
		t.Errorf("String() = %q missing phase name", b.String())
	}
}

func TestBatchStats(t *testing.T) {
	s := BatchStats{
		Queries:        10,
		WallLatency:    2 * time.Second,
		ModeledLatency: 500 * time.Millisecond,
	}
	if got := s.ModeledQPS(); got != 20 {
		t.Errorf("ModeledQPS = %v, want 20", got)
	}
	var zero BatchStats
	if zero.ModeledQPS() != 0 {
		t.Error("zero stats produced nonzero QPS")
	}
}

func TestSchedulerStats(t *testing.T) {
	s := SchedulerStats{
		Submitted:        100,
		Rejected:         5,
		Dispatched:       90,
		Passes:           30,
		CoalescedPasses:  20,
		CoalescedQueries: 80,
		TotalWait:        900 * time.Millisecond,
		MaxDepth:         12,
		Epoch:            3,
	}
	if got := s.AvgWait(); got != 10*time.Millisecond {
		t.Errorf("AvgWait = %v, want 10ms", got)
	}
	if got := s.AvgCoalesce(); got != 3 {
		t.Errorf("AvgCoalesce = %v, want 3", got)
	}
	for _, want := range []string{"rejected=5", "coalesce=3.00", "epoch=3"} {
		if !strings.Contains(s.String(), want) {
			t.Errorf("String() = %q missing %q", s.String(), want)
		}
	}
	var zero SchedulerStats
	if zero.AvgWait() != 0 || zero.AvgCoalesce() != 0 {
		t.Error("zero stats produced nonzero averages")
	}
}

func TestClusterStats(t *testing.T) {
	c := StoreStats{
		Retrievals:      4,
		BatchRetrievals: 1,
		Updates:         2,
		Shards: []ShardStats{
			{Queries: 4, Batches: 1, BatchQueries: 6, TotalTime: 100 * time.Millisecond},
			{Queries: 4, Batches: 1, BatchQueries: 6, UpdateRows: 3, Errors: 1, TotalTime: 50 * time.Millisecond},
		},
	}
	if got := c.TotalSubQueries(); got != 20 {
		t.Errorf("TotalSubQueries = %d, want 20", got)
	}
	// 4 single round trips + 1 batch round trip (however many
	// sub-queries it carried) over 100ms → 20ms per round trip.
	if got := c.Shards[0].AvgTime(); got != 20*time.Millisecond {
		t.Errorf("AvgTime = %v, want 20ms", got)
	}
	for _, want := range []string{"retrievals=4", "updates=2", "shard1[", "rows=3", "err=1"} {
		if !strings.Contains(c.String(), want) {
			t.Errorf("String() = %q missing %q", c.String(), want)
		}
	}
	var zero ShardStats
	if zero.AvgTime() != 0 {
		t.Error("zero shard stats produced nonzero average")
	}
}

func TestWidthBucket(t *testing.T) {
	cases := []struct {
		width, bucket int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3},
		{9, 4}, {16, 4}, {17, 5}, {32, 5}, {33, 6}, {64, 6},
		{65, 7}, {1000, 7},
	}
	for _, c := range cases {
		if got := WidthBucket(c.width); got != c.bucket {
			t.Errorf("WidthBucket(%d) = %d, want %d", c.width, got, c.bucket)
		}
	}
	// Every bucket has a label, and the top one is open-ended.
	for i := 0; i < NumWidthBuckets; i++ {
		if WidthBucketLabel(i) == "" {
			t.Errorf("bucket %d has no label", i)
		}
	}
	if got := WidthBucketLabel(NumWidthBuckets - 1); !strings.HasSuffix(got, "+") {
		t.Errorf("top bucket label %q is not open-ended", got)
	}
}

func TestRoundDuration(t *testing.T) {
	cases := []struct {
		in, want time.Duration
	}{
		{83*time.Minute + 123*time.Millisecond, 83*time.Minute + 120*time.Millisecond},
		{1234567 * time.Nanosecond, 1230 * time.Microsecond},
		{1234 * time.Nanosecond, 1230 * time.Nanosecond},
		{740 * time.Nanosecond, 740 * time.Nanosecond}, // sub-µs keeps full precision
		{0, 0},
		{-1234 * time.Nanosecond, -1230 * time.Nanosecond},
	}
	for _, c := range cases {
		if got := RoundDuration(c.in); got != c.want {
			t.Errorf("RoundDuration(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// Sub-microsecond average waits must not render as "0s" — the bench
// report regression this rounding exists for.
func TestSchedulerStatsStringSubMicroWait(t *testing.T) {
	s := SchedulerStats{Dispatched: 1000, TotalWait: 740 * time.Microsecond}
	if s.AvgWait() != 740*time.Nanosecond {
		t.Fatalf("AvgWait = %v", s.AvgWait())
	}
	if strings.Contains(s.String(), "avg-wait=0s") {
		t.Errorf("String() truncated sub-µs wait to zero: %q", s.String())
	}
	if !strings.Contains(s.String(), "avg-wait=740ns") {
		t.Errorf("String() = %q, want avg-wait=740ns", s.String())
	}
}

func TestSchedulerStatsDelta(t *testing.T) {
	prev := SchedulerStats{
		Submitted: 100, Rejected: 5, Cancelled: 1, Dispatched: 90,
		Passes: 30, CoalescedPasses: 20, CoalescedQueries: 80,
		TotalWait: 900 * time.Millisecond, MaxDepth: 12, Depth: 3, Epoch: 3,
	}
	prev.PassWidths[0] = 10
	cur := SchedulerStats{
		Submitted: 150, Rejected: 9, Cancelled: 2, Dispatched: 130,
		Passes: 45, CoalescedPasses: 28, CoalescedQueries: 110,
		TotalWait: 1200 * time.Millisecond, MaxDepth: 15, Depth: 1, Epoch: 4,
	}
	cur.PassWidths[0] = 25
	cur.PassWidths[3] = 7

	d := Delta(cur, prev)
	if d.Submitted != 50 || d.Rejected != 4 || d.Cancelled != 1 || d.Dispatched != 40 {
		t.Errorf("counter deltas wrong: %+v", d)
	}
	if d.Passes != 15 || d.CoalescedPasses != 8 || d.CoalescedQueries != 30 {
		t.Errorf("pass deltas wrong: %+v", d)
	}
	if d.TotalWait != 300*time.Millisecond {
		t.Errorf("TotalWait delta = %v, want 300ms", d.TotalWait)
	}
	if d.PassWidths[0] != 15 || d.PassWidths[3] != 7 {
		t.Errorf("PassWidths delta wrong: %v", d.PassWidths)
	}
	// Gauges keep the current value rather than subtracting.
	if d.MaxDepth != 15 || d.Depth != 1 || d.Epoch != 4 {
		t.Errorf("gauges not preserved: MaxDepth=%d Depth=%d Epoch=%d", d.MaxDepth, d.Depth, d.Epoch)
	}
}

func TestDeltaStore(t *testing.T) {
	prev := StoreStats{
		Retrievals: 10, BatchRetrievals: 2, Updates: 1,
		Errors: 3, Busy: 2, Retries: 4, Hedges: 5, HedgeWins: 1,
		Shards: []ShardStats{{Queries: 10, TotalTime: time.Second}},
	}
	cur := StoreStats{
		Retrievals: 30, BatchRetrievals: 6, Updates: 2,
		Errors: 5, Busy: 4, Retries: 6, Hedges: 9, HedgeWins: 2,
		Shards: []ShardStats{
			{Queries: 40, Batches: 3, TotalTime: 3 * time.Second},
			{Queries: 7, Errors: 1},
		},
	}
	d := DeltaStore(cur, prev)
	if d.Retrievals != 20 || d.BatchRetrievals != 4 || d.Updates != 1 {
		t.Errorf("op deltas wrong: %+v", d)
	}
	if d.Errors != 2 || d.Busy != 2 || d.Retries != 2 || d.Hedges != 4 || d.HedgeWins != 1 {
		t.Errorf("failure deltas wrong: %+v", d)
	}
	if len(d.Shards) != 2 {
		t.Fatalf("shard count = %d, want 2", len(d.Shards))
	}
	if d.Shards[0].Queries != 30 || d.Shards[0].Batches != 3 || d.Shards[0].TotalTime != 2*time.Second {
		t.Errorf("shard 0 delta wrong: %+v", d.Shards[0])
	}
	// A shard unseen in prev (grown topology) deltas against zero.
	if d.Shards[1].Queries != 7 || d.Shards[1].Errors != 1 {
		t.Errorf("shard 1 delta wrong: %+v", d.Shards[1])
	}
}

func TestStoreStatsBusyInString(t *testing.T) {
	s := StoreStats{Errors: 3, Busy: 2}
	if !strings.Contains(s.String(), "busy=2") {
		t.Errorf("String() = %q missing busy count", s.String())
	}
}
