package cluster

import (
	"fmt"

	"github.com/impir/impir/internal/database"
)

// SplitDB carves a database into shards contiguous row-range replicas
// using the Ranges policy (sizes differ by at most one; ragged last
// shard when N % S != 0). Each returned database owns a copy of its
// rows, so loading one into a server engine never aliases the source.
func SplitDB(db *database.DB, shards int) ([]*database.DB, error) {
	if db == nil {
		return nil, fmt.Errorf("cluster: nil database")
	}
	sizes, err := Ranges(uint64(db.NumRecords()), shards)
	if err != nil {
		return nil, err
	}
	out := make([]*database.DB, shards)
	var first uint64
	for i, n := range sizes {
		part, err := sliceDB(db, first, n)
		if err != nil {
			return nil, err
		}
		out[i] = part
		first += n
	}
	return out, nil
}

// sliceDB copies records [first, first+n) into a standalone database.
func sliceDB(db *database.DB, first, n uint64) (*database.DB, error) {
	rs := uint64(db.RecordSize())
	data := db.Data()
	lo, hi := first*rs, (first+n)*rs
	if hi > uint64(len(data)) {
		return nil, fmt.Errorf("cluster: shard range [%d,%d) outside database of %d records", first, first+n, db.NumRecords())
	}
	part := make([]byte, hi-lo)
	copy(part, data[lo:hi])
	return database.FromFlat(part, db.RecordSize())
}
