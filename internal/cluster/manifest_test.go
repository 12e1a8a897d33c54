package cluster

import "testing"

func twoShardManifest() Manifest {
	return Manifest{
		RecordSize: 32,
		Shards:     []Shard{{FirstRecord: 0, NumRecords: 64}, {FirstRecord: 64, NumRecords: 64}},
	}
}

func TestManifestValidate(t *testing.T) {
	if err := twoShardManifest().Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}

	for name, mutate := range map[string]func(*Manifest){
		"zero record size": func(m *Manifest) { m.RecordSize = 0 },
		"no shards":        func(m *Manifest) { m.Shards = nil },
		"empty shard":      func(m *Manifest) { m.Shards[1].NumRecords = 0 },
		"gap":              func(m *Manifest) { m.Shards[1].FirstRecord = 65 },
		"overlap":          func(m *Manifest) { m.Shards[1].FirstRecord = 63 },
		"not from zero":    func(m *Manifest) { m.Shards[0].FirstRecord = 1 },
		"unordered shards": func(m *Manifest) { m.Shards[0], m.Shards[1] = m.Shards[1], m.Shards[0] },
	} {
		m := twoShardManifest()
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestManifestValidateCaps(t *testing.T) {
	atCap := Manifest{RecordSize: 32, Shards: make([]Shard, maxShards)}
	for i := range atCap.Shards {
		atCap.Shards[i] = Shard{FirstRecord: uint64(i), NumRecords: 1}
	}
	if err := atCap.Validate(); err != nil {
		t.Fatalf("%d shards rejected: %v", maxShards, err)
	}
	over := atCap
	over.Shards = append(append([]Shard(nil), atCap.Shards...), Shard{FirstRecord: maxShards, NumRecords: 1})
	if err := over.Validate(); err == nil {
		t.Error("shard cap not enforced")
	}
}

func TestManifestLocate(t *testing.T) {
	m := raggedManifest(t)
	for _, tc := range []struct {
		global uint64
		shard  int
		local  uint64
	}{
		{0, 0, 0}, {2, 0, 2}, {3, 1, 0}, {9, 3, 1},
	} {
		shard, local, err := m.Locate(tc.global)
		if err != nil {
			t.Fatalf("Locate(%d): %v", tc.global, err)
		}
		if shard != tc.shard || local != tc.local {
			t.Errorf("Locate(%d) = (%d,%d), want (%d,%d)", tc.global, shard, local, tc.shard, tc.local)
		}
	}
	if _, _, err := m.Locate(10); err == nil {
		t.Error("out-of-range index located")
	}
}

func TestRangesRagged(t *testing.T) {
	for _, tc := range []struct {
		n      uint64
		shards int
		want   []uint64
	}{
		{128, 4, []uint64{32, 32, 32, 32}},
		{10, 4, []uint64{3, 3, 2, 2}}, // N % S != 0: sizes differ by ≤ 1
		{700, 3, []uint64{234, 233, 233}},
		{5, 5, []uint64{1, 1, 1, 1, 1}},
	} {
		got, err := Ranges(tc.n, tc.shards)
		if err != nil {
			t.Fatalf("Ranges(%d,%d): %v", tc.n, tc.shards, err)
		}
		var sum uint64
		for i, g := range got {
			if g != tc.want[i] {
				t.Errorf("Ranges(%d,%d) = %v, want %v", tc.n, tc.shards, got, tc.want)
				break
			}
			sum += g
		}
		if sum != tc.n {
			t.Errorf("Ranges(%d,%d) sums to %d", tc.n, tc.shards, sum)
		}
		if last := got[len(got)-1]; last > got[0] {
			t.Errorf("Ranges(%d,%d): last shard %d larger than first %d", tc.n, tc.shards, last, got[0])
		}
	}
	if _, err := Ranges(3, 4); err == nil {
		t.Error("more shards than records accepted")
	}
	if _, err := Ranges(16, 0); err == nil {
		t.Error("zero shards accepted")
	}
}
