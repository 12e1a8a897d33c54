package database

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 32); err == nil {
		t.Error("New accepted zero records")
	}
	if _, err := New(10, 0); err == nil {
		t.Error("New accepted zero record size")
	}
	if _, err := New(-1, 32); err == nil {
		t.Error("New accepted negative records")
	}
}

func TestRecordAccess(t *testing.T) {
	db, err := New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	rec := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := db.SetRecord(2, rec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(db.Record(2), rec) {
		t.Fatal("Record(2) does not round-trip SetRecord")
	}
	if !bytes.Equal(db.Record(0), make([]byte, 8)) {
		t.Fatal("untouched record is not zero")
	}
	if err := db.SetRecord(4, rec); err == nil {
		t.Error("SetRecord accepted out-of-range index")
	}
	if err := db.SetRecord(0, rec[:3]); err == nil {
		t.Error("SetRecord accepted short record")
	}
}

func TestRecordPanicsOutOfRange(t *testing.T) {
	db, _ := New(2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("Record(-1) did not panic")
		}
	}()
	db.Record(-1)
}

func TestFromFlat(t *testing.T) {
	data := []byte{1, 2, 3, 4, 5, 6}
	db, err := FromFlat(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumRecords() != 2 {
		t.Fatalf("NumRecords = %d, want 2", db.NumRecords())
	}
	if _, err := FromFlat(data, 4); err == nil {
		t.Error("FromFlat accepted non-multiple length")
	}
	if _, err := FromFlat(nil, 4); err == nil {
		t.Error("FromFlat accepted empty data")
	}
}

func TestDomain(t *testing.T) {
	tests := []struct {
		records int
		want    int
	}{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11},
	}
	for _, tt := range tests {
		db, err := New(tt.records, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := db.Domain(); got != tt.want {
			t.Errorf("Domain(%d records) = %d, want %d", tt.records, got, tt.want)
		}
	}
}

func TestPadToPowerOfTwo(t *testing.T) {
	db, _ := New(5, 4)
	for i := 0; i < 5; i++ {
		db.SetRecord(i, []byte{byte(i), 1, 2, 3})
	}
	padded := db.PadToPowerOfTwo()
	if padded.NumRecords() != 8 {
		t.Fatalf("padded NumRecords = %d, want 8", padded.NumRecords())
	}
	for i := 0; i < 5; i++ {
		if !bytes.Equal(padded.Record(i), db.Record(i)) {
			t.Fatalf("padding corrupted record %d", i)
		}
	}
	for i := 5; i < 8; i++ {
		if !bytes.Equal(padded.Record(i), make([]byte, 4)) {
			t.Fatalf("pad record %d is not zero", i)
		}
	}
	// Already power-of-two: must return the same object, not a copy.
	db2, _ := New(8, 4)
	if db2.PadToPowerOfTwo() != db2 {
		t.Error("PadToPowerOfTwo copied an already-padded DB")
	}
}

func TestCloneIndependence(t *testing.T) {
	db, _ := GenerateHashDB(16, 1)
	clone := db.Clone()
	if !bytes.Equal(db.Data(), clone.Data()) {
		t.Fatal("clone differs from original")
	}
	clone.SetRecord(0, make([]byte, 32))
	if bytes.Equal(db.Record(0), clone.Record(0)) {
		t.Fatal("mutating clone changed original")
	}
}

// TestApplyUpdatesAllOrNothing: a set with one bad entry is rejected
// whole and leaves every record untouched.
func TestApplyUpdatesAllOrNothing(t *testing.T) {
	db, _ := GenerateHashDB(16, 1)
	orig := db.Clone()
	rec := bytes.Repeat([]byte{0xAB}, 32)
	for name, bad := range map[string]map[uint64][]byte{
		"empty":        {},
		"out of range": {3: rec, 16: rec},
		"short record": {3: rec, 4: rec[:31]},
	} {
		if err := db.ApplyUpdates(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if !bytes.Equal(db.Data(), orig.Data()) {
			t.Fatalf("%s: rejected set was partly applied", name)
		}
	}
	if err := db.ApplyUpdates(map[uint64][]byte{3: rec}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(db.Record(3), rec) || !bytes.Equal(db.Record(4), orig.Record(4)) {
		t.Fatal("valid update not applied exactly")
	}
}

func TestDigest(t *testing.T) {
	a, _ := GenerateHashDB(32, 7)
	b, _ := GenerateHashDB(32, 7)
	if a.Digest() != b.Digest() {
		t.Fatal("identical databases produced different digests")
	}
	c, _ := GenerateHashDB(32, 8)
	if a.Digest() == c.Digest() {
		t.Fatal("different databases produced the same digest")
	}
	// Geometry must be part of the digest: same bytes, different shape.
	flat := make([]byte, 64)
	d1, _ := FromFlat(flat, 32)
	d2, _ := FromFlat(flat, 16)
	if d1.Digest() == d2.Digest() {
		t.Fatal("digest ignores record geometry")
	}
}

// TestDigestIsPaddedForm: a database digests as its zero-padded form
// does, whatever its record count (the tail spans several of Digest's
// zero blocks at 700 × 104 B). So 5 records and the same 5 plus a zero
// sixth digest alike: both answer every query of their 8-index space
// identically.
func TestDigestIsPaddedForm(t *testing.T) {
	for _, n := range []int{1, 5, 8, 700} {
		db, _ := FromFlat(bytes.Repeat([]byte{byte(n)}, n*104), 104)
		if db.Digest() != db.PadToPowerOfTwo().Digest() {
			t.Errorf("%d records: digest differs from the padded form's", n)
		}
	}
	a, _ := GenerateHashDB(5, 1)
	b, _ := New(6, 32)
	copy(b.Data(), a.Data())
	if a.Digest() != b.Digest() {
		t.Error("a trailing zero record changed the padded digest")
	}
}

func TestGenerateHashDBDeterministic(t *testing.T) {
	a, err := GenerateHashDB(64, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := GenerateHashDB(64, 42)
	if !bytes.Equal(a.Data(), b.Data()) {
		t.Fatal("generator is not deterministic")
	}
	c, _ := GenerateHashDB(64, 43)
	if bytes.Equal(a.Data(), c.Data()) {
		t.Fatal("different seeds produced identical databases")
	}
	// Records must be distinct (hash collisions would indicate a bug).
	seen := make(map[string]bool)
	for i := 0; i < a.NumRecords(); i++ {
		k := string(a.Record(i))
		if seen[k] {
			t.Fatalf("duplicate record at %d", i)
		}
		seen[k] = true
	}
}

func TestGenerateCTLog(t *testing.T) {
	db, entries, err := GenerateCTLog(100, 9)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumRecords() != 100 || len(entries) != 100 {
		t.Fatalf("got %d records / %d entries, want 100/100", db.NumRecords(), len(entries))
	}
	// The stored record must equal the entry's leaf hash.
	for _, i := range []int{0, 50, 99} {
		want := entries[i].LeafHash()
		if !bytes.Equal(db.Record(i), want[:]) {
			t.Fatalf("record %d does not match entry leaf hash", i)
		}
	}
}

func TestGenerateCredentialDB(t *testing.T) {
	db, creds, err := GenerateCredentialDB(50, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 25, 49} {
		want := CredentialHash(creds[i])
		if !bytes.Equal(db.Record(i), want[:]) {
			t.Fatalf("record %d does not match credential hash", i)
		}
	}
}

func TestGenerateBlocklist(t *testing.T) {
	db, urls, err := GenerateBlocklist(20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumRecords() != 20 || len(urls) != 20 {
		t.Fatal("blocklist geometry mismatch")
	}
}

func TestGeneratorErrors(t *testing.T) {
	if _, err := GenerateHashDB(0, 1); err == nil {
		t.Error("GenerateHashDB accepted zero records")
	}
	if _, _, err := GenerateCTLog(0, 1); err == nil {
		t.Error("GenerateCTLog accepted zero records")
	}
	if _, _, err := GenerateCredentialDB(-1, 1); err == nil {
		t.Error("GenerateCredentialDB accepted negative records")
	}
	if _, _, err := GenerateBlocklist(0, 1); err == nil {
		t.Error("GenerateBlocklist accepted zero records")
	}
}

// Property: Domain always covers the record count.
func TestQuickDomainCovers(t *testing.T) {
	f := func(nRaw uint16) bool {
		n := int(nRaw)%5000 + 1
		db, err := New(n, 1)
		if err != nil {
			return false
		}
		return 1<<uint(db.Domain()) >= n && (db.Domain() == 0 || 1<<uint(db.Domain()-1) < n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: padding preserves prefix content and digest of original range.
func TestQuickPadPreservesContent(t *testing.T) {
	f := func(nRaw uint16, seed int64) bool {
		n := int(nRaw)%200 + 1
		db, err := GenerateHashDB(n, seed)
		if err != nil {
			return false
		}
		padded := db.PadToPowerOfTwo()
		if padded.NumRecords() < n || !padded.IsPowerOfTwo() {
			return false
		}
		return bytes.Equal(padded.Data()[:n*32], db.Data())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
