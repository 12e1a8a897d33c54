package impir

import (
	"bytes"
	"testing"

	"github.com/impir/impir/internal/dpf"
)

// TestQueryBatchFusedMatchesUnfused: the fused multi-stream dpXOR pass
// must be bit-exact with width-1 passes (one round-robin launch per
// query), in resident mode and in the streaming (beyond-MRAM) regime.
func TestQueryBatchFusedMatchesUnfused(t *testing.T) {
	cases := []struct {
		name string
		tune func(*Config)
	}{
		{"resident", func(*Config) {}},
		{"resident 2 clusters", func(c *Config) { c.Clusters = 2 }},
		{"streaming", func(c *Config) { c.PIM.MRAMPerDPU = 16 << 10 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(1)
			tc.tune(&cfg)

			const numRecords = 2048
			eng, db := newLoadedEngine(t, cfg, numRecords)

			const batch = 12
			keys := make([]*dpf.Key, batch)
			for i := range keys {
				k0, _ := genKeys(t, db.Domain(), uint64(i*151)%numRecords)
				keys[i] = k0
			}
			rf, statsF, err := eng.Pass(dpf.Batch{Keys: keys})
			if err != nil {
				t.Fatalf("fused pass: %v", err)
			}
			if !statsF.Fused {
				t.Error("fused batch stats not marked Fused")
			}
			for i := range keys {
				rs, statsS, err := eng.Pass(dpf.Batch{Keys: keys[i : i+1]})
				if err != nil {
					t.Fatalf("query %d: unfused pass: %v", i, err)
				}
				if !bytes.Equal(rf[i], rs[0]) {
					t.Fatalf("query %d: fused %x != unfused %x", i, rf[i][:8], rs[0][:8])
				}
				if statsS.Fused {
					t.Errorf("query %d: width-1 pass stats marked Fused", i)
				}
			}
		})
	}
}
