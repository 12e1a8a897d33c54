package impir

import (
	"bytes"
	"sync"
	"testing"

	"github.com/impir/impir/internal/dpf"
)

// TestConcurrentSingleQueries hits one engine with parallel Query calls,
// as concurrent transport connections do. Cluster serialisation must make
// this safe and correct.
func TestConcurrentSingleQueries(t *testing.T) {
	for _, clusters := range []int{1, 2} {
		eng, db := newLoadedEngine(t, testConfig(clusters), 512)

		const goroutines = 8
		var wg sync.WaitGroup
		errs := make([]error, goroutines)
		results := make([][]byte, goroutines)
		keys := make([]*dpf.Key, goroutines)
		for i := range keys {
			keys[i], _ = genKeys(t, db.Domain(), uint64(i*61%512))
		}

		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], _, errs[i] = query(eng, keys[i])
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("clusters=%d goroutine %d: %v", clusters, i, err)
			}
		}

		// Verify each against a reference query on a replica engine.
		ref, _ := newLoadedEngine(t, testConfig(clusters), 512)
		for i := range keys {
			want, _, err := query(ref, keys[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(results[i], want) {
				t.Fatalf("clusters=%d: concurrent query %d produced wrong subresult", clusters, i)
			}
		}
	}
}

// TestConcurrentBatches: two concurrent batches on the same engine must
// both succeed — clusters serialise rather than double-book launches.
func TestConcurrentBatches(t *testing.T) {
	eng, db := newLoadedEngine(t, testConfig(2), 512)
	mkKeys := func(off int) []*dpf.Key {
		keys := make([]*dpf.Key, 6)
		for i := range keys {
			keys[i], _ = genKeys(t, db.Domain(), uint64((off+i*37)%512))
		}
		return keys
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = eng.Pass(dpf.Batch{Keys: mkKeys(i * 100)})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
}
