package bench

import (
	"fmt"
	"time"

	"github.com/impir/impir/internal/keyword"
)

// KeywordLookup characterises the keyword (key→value) retrieval layer:
// real cuckoo tables built at increasing pair counts, reporting the
// achieved load factor and stash spill (the space overhead side) and
// the modeled private-lookup latency versus plain index-PIR over the
// same corpus (the time overhead side — a lookup privately retrieves
// k candidate buckets plus the stash instead of one record, and every
// probe is a full-table scan under all-for-one).
func KeywordLookup() *Report {
	r := &Report{
		ID:    "Keyword lookup",
		Title: "Keyword PIR: effective load factor and modeled lookup latency vs table size",
		Columns: []string{"Pairs", "Buckets (+stash)", "Load factor", "Stashed",
			"Probes/key", "KV lookup (ms)", "Index-PIR (ms)"},
	}
	pimM := paperPIM()

	sizes := []int{1 << 12, 1 << 14, 1 << 16, 1 << 18}
	var loads []float64
	var lookups []time.Duration
	var probes []int
	maxStashFrac := 0.0
	for _, n := range sizes {
		table, err := keyword.BuildTable(keyword.GeneratePairs(n, 2026), keyword.Options{Seed: 2026})
		if err != nil {
			r.AddCheck(fmt.Sprintf("table build (%d pairs)", n), false, "%v", err)
			return r
		}
		m := table.Manifest

		// The models are calibrated for 32-byte records; a keyword probe
		// scans TotalBuckets records of RecordSize bytes, so convert to
		// the equivalent 32-byte-record count (dpXOR cost is linear in
		// scanned bytes) and charge one scan per probe.
		equivalent := int(m.TotalBuckets()) * m.RecordSize() / recordSize
		probeBD := pimM.phases(pow2At(equivalent))
		lookup := time.Duration(m.ProbesPerKey()) * probeBD.TotalModeled()
		indexBD := pimM.phases(pow2At(n))

		loads = append(loads, table.LoadFactor())
		lookups = append(lookups, lookup)
		probes = append(probes, m.ProbesPerKey())
		if frac := float64(table.Stashed()) / float64(n); frac > maxStashFrac {
			maxStashFrac = frac
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d (+%d)", m.NumBuckets, m.StashBuckets),
			fmt.Sprintf("%.2f", table.LoadFactor()),
			fmt.Sprintf("%d", table.Stashed()),
			fmt.Sprintf("%d", m.ProbesPerKey()),
			fmtMS(lookup),
			fmtMS(indexBD.TotalModeled()),
		})
	}

	minLoad := loads[0]
	for _, lf := range loads {
		if lf < minLoad {
			minLoad = lf
		}
	}
	r.AddCheck("effective load factor stays ≥ 0.70 at every size", minLoad >= 0.70,
		"min %.2f across %d sizes (target 0.85)", minLoad, len(sizes))
	r.AddCheck("stash absorbs < 1% of pairs", maxStashFrac < 0.01,
		"worst stash fraction %.4f", maxStashFrac)
	constProbes := true
	for _, p := range probes {
		if p != probes[0] {
			constProbes = false
		}
	}
	r.AddCheck("probe count per key is constant across table sizes (k + fixed stash)", constProbes,
		"%d probes/key at every size", probes[0])
	monotone := true
	for i := 1; i < len(lookups); i++ {
		if lookups[i] <= lookups[i-1] {
			monotone = false
		}
	}
	r.AddCheck("modeled lookup time grows with table size (every probe is a full scan)", monotone,
		"%v → %v", lookups[0].Round(time.Microsecond), lookups[len(lookups)-1].Round(time.Microsecond))
	r.AddNote("lookup = k candidates + stash probes per key, each a full-table dpXOR on the paper's PIM configuration; index-PIR = one probe over a 32B-record corpus of equal cardinality")
	return r
}
