package impir

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestUpdateAcrossEngines: §3.3 bulk updates must be visible to
// subsequent queries on every engine, through the public API.
func TestUpdateAcrossEngines(t *testing.T) {
	for _, kind := range []EngineKind{EnginePIM, EngineCPU, EngineGPU} {
		t.Run(kind.String(), func(t *testing.T) {
			db, err := GenerateHashDB(256, 1)
			if err != nil {
				t.Fatal(err)
			}
			s0, s1 := newPair(t, kind, db)

			newRec := bytes.Repeat([]byte{0x5C}, 32)
			updates := map[uint64][]byte{99: newRec}
			if err := s0.Update(updates); err != nil {
				t.Fatalf("Update server 0: %v", err)
			}
			if err := s1.Update(updates); err != nil {
				t.Fatalf("Update server 1: %v", err)
			}

			k0, k1, err := GenerateKeys(256, 99)
			if err != nil {
				t.Fatal(err)
			}
			r0, _, err := s0.Answer(context.Background(), k0)
			if err != nil {
				t.Fatal(err)
			}
			r1, _, err := s1.Answer(context.Background(), k1)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := Reconstruct(r0, r1)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec, newRec) {
				t.Fatalf("engine %v: query after update returned stale record", kind)
			}
		})
	}
}

func TestUpdateValidationThroughPublicAPI(t *testing.T) {
	db, _ := GenerateHashDB(64, 1)
	s0, _ := newPair(t, EngineCPU, db)
	if err := s0.Update(nil); err == nil {
		t.Error("empty update accepted")
	}
	if err := s0.Update(map[uint64][]byte{1000: make([]byte, 32)}); err == nil {
		t.Error("out-of-range update accepted")
	}
	if err := s0.Update(map[uint64][]byte{0: make([]byte, 3)}); err == nil {
		t.Error("short record accepted")
	}
}

// TestUpdateValidationBeforeEngine: Server.Update must reject a
// wrong-length record with a clear error naming the expected record
// size, before the scheduler quiesces or the engine is touched — the
// update epoch must not move.
func TestUpdateValidationBeforeEngine(t *testing.T) {
	db, _ := GenerateHashDB(64, 1)
	s0, _ := newPair(t, EngineCPU, db)

	for name, bad := range map[string]map[uint64][]byte{
		"short record": {0: make([]byte, 3)},
		"long record":  {0: make([]byte, 33)},
		"out of range": {1 << 20: make([]byte, 32)},
		"huge index":   {^uint64(0): make([]byte, 32)},
		"empty set":    {},
	} {
		err := s0.Update(bad)
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if !strings.HasPrefix(err.Error(), "impir:") {
			t.Errorf("%s: error %q does not come from the validation layer", name, err)
		}
	}
	if err := s0.Update(map[uint64][]byte{0: make([]byte, 3)}); err == nil ||
		!strings.Contains(err.Error(), "record size 32") {
		t.Errorf("short record error %v does not name the expected record size", err)
	}
	if got := s0.QueueStats().Updates; got != 0 {
		t.Errorf("rejected updates moved the epoch: %d updates applied", got)
	}
}

// TestUpdateDesynchronisedReplicasDetected: if only one server applies an
// update, reconstruction silently corrupts — which is exactly why Open
// compares digests at connect time. Verify the digests diverge.
func TestUpdateDesynchronisedReplicasDetected(t *testing.T) {
	db, _ := GenerateHashDB(128, 1)
	s0, s1 := newPair(t, EngineCPU, db.Clone())
	if err := s0.Update(map[uint64][]byte{5: bytes.Repeat([]byte{1}, 32)}); err != nil {
		t.Fatal(err)
	}
	if s0.Database().Digest() == s1.Database().Digest() {
		t.Fatal("digest did not change after a one-sided update")
	}
}
