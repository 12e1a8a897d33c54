package impir

import (
	"bytes"
	"testing"
)

// The update tests apply in-place record updates through the engine
// under the PIM pricer, single and clustered, and read them back with
// the two-server protocol.

func TestUpdateRecordsVisibleToQueries(t *testing.T) {
	for _, clusters := range []int{1, 2} {
		e0, db := newLoadedEngine(t, testConfig(clusters), 512)
		e1, _ := newLoadedEngine(t, testConfig(clusters), 512)
		newRec := bytes.Repeat([]byte{0xAB}, 32)
		for _, e := range []*testEngine{e0, e1} {
			if err := e.ApplyUpdates(map[uint64][]byte{137: newRec}); err != nil {
				t.Fatalf("ApplyUpdates: %v", err)
			}
		}
		if got := queryBothServers(t, e0, e1, db.Domain(), 137); !bytes.Equal(got, newRec) {
			t.Fatalf("clusters=%d: query after update returned stale record %x", clusters, got[:4])
		}
		// Neighbouring records must be untouched.
		if got := queryBothServers(t, e0, e1, db.Domain(), 136); !bytes.Equal(got, db.Record(136)) {
			t.Fatalf("clusters=%d: update corrupted neighbouring record", clusters)
		}
	}
}

func TestUpdateRecordsBulk(t *testing.T) {
	e0, db := newLoadedEngine(t, testConfig(2), 512)
	e1, _ := newLoadedEngine(t, testConfig(2), 512)
	updates := make(map[uint64][]byte)
	for i := range 50 {
		updates[uint64(i*10)] = bytes.Repeat([]byte{byte(i + 1)}, 32)
	}
	for _, e := range []*testEngine{e0, e1} {
		if err := e.ApplyUpdates(updates); err != nil {
			t.Fatal(err)
		}
	}
	for idx, want := range updates {
		if got := queryBothServers(t, e0, e1, db.Domain(), idx); !bytes.Equal(got, want) {
			t.Fatalf("record %d not updated", idx)
		}
	}
}

func TestUpdateRecordsValidation(t *testing.T) {
	e0, _ := newLoadedEngine(t, testConfig(1), 512)
	orig := bytes.Clone(e0.Database().Record(5))
	for name, bad := range map[string]map[uint64][]byte{
		"empty update set":   nil,
		"index ^0":           {^uint64(0): make([]byte, 32)},
		"index 1<<20":        {1 << 20: make([]byte, 32)},
		"short record":       {0: make([]byte, 16)},
		"partly bad updates": {5: bytes.Repeat([]byte{0xFF}, 32), 1 << 20: make([]byte, 32)},
	} {
		if err := e0.ApplyUpdates(bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// A bad entry in a batch must not partially apply.
	if !bytes.Equal(e0.Database().Record(5), orig) {
		t.Fatal("failed batch partially applied")
	}
	if err := newEngine(t, testConfig(1)).ApplyUpdates(map[uint64][]byte{0: make([]byte, 32)}); err == nil {
		t.Error("update before load accepted")
	}
}
