package dpf

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/impir/impir/internal/bitvec"
)

// Batch is the input of one engine pass: DPF keys, which Expand turns
// into selectors, or explicit selector shares (the n-server encoding of
// §2.3), which already are selectors. Exactly one of the two is set.
type Batch struct {
	Keys   []*Key
	Shares []*bitvec.Vector
}

// Len is the pass width B: how many queries the pass answers.
func (b Batch) Len() int { return len(b.Keys) + len(b.Shares) }

// CheckKey reports whether key can be evaluated against a database of
// 2^domain records.
func CheckKey(key *Key, domain int) error {
	if key == nil {
		return errors.New("dpf: nil key")
	}
	if int(key.Domain) != domain {
		return fmt.Errorf("dpf: key domain %d does not match database domain %d", key.Domain, domain)
	}
	return key.checkShape()
}

// Expand is the host-side expand stage of the server engine's one pass
// (internal/engine, Alg. 1 ➋), whichever pricer models it: it checks
// the batch against a database of 2^domain records and returns one
// selector per query, as the packed words of its bit vector — the form
// every dpXOR scan consumes. Keys are evaluated over the full domain
// with a thread layout that follows the width: a lone key gets all
// workers cooperating on its subtrees (§3.2), while B > 1 keys run one
// thread each, min(B, workers) at a time (Fig. 8). Workers ≤ 0 means
// GOMAXPROCS.
func (b Batch) Expand(domain, workers int, s Strategy) ([][]uint64, error) {
	switch {
	case b.Len() == 0:
		return nil, errors.New("dpf: empty batch")
	case len(b.Keys) > 0 && len(b.Shares) > 0:
		return nil, errors.New("dpf: batch mixes keys and shares")
	}
	for i, k := range b.Keys {
		if err := CheckKey(k, domain); err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
	}
	sels := make([][]uint64, b.Len())
	for i, sh := range b.Shares {
		if sh == nil || sh.Len() != 1<<domain {
			return nil, fmt.Errorf("dpf: share %d does not cover the database's %d records", i, 1<<domain)
		}
		sels[i] = sh.Words()
	}
	if b.Shares != nil {
		return sels, nil
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opts := FullEvalOptions{Strategy: s, Workers: 1}
	if len(b.Keys) == 1 {
		opts.Workers = workers
	}
	err := forEach(len(b.Keys), min(len(b.Keys), workers), func(i int) error {
		v, err := b.Keys[i].EvalFull(opts)
		if err != nil {
			return err
		}
		sels[i] = v.Words()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sels, nil
}

// forEach runs f(0), …, f(n−1) on conc goroutines, the caller's among
// them, and joins the errors. With conc ≤ 1 it runs serially and starts
// nothing.
func forEach(n, conc int, f func(int) error) error {
	if conc <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			errs[i] = f(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return errors.Join(errs...)
}
