package main

import (
	"math"
	"sort"
)

// rng is splitmix64: every generated input — database bytes, key corpora,
// index streams, the arrival schedule — is a pure function of -seed, so
// the program under test sees only inputs the benchmark can regenerate.
type rng struct{ s uint64 }

// newRNG derives an independent stream for one purpose (stream) of one
// run (seed), so adding a consumer never shifts another's inputs.
func newRNG(seed, stream uint64) *rng {
	r := &rng{s: seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n); the modulo bias is irrelevant at the
// benchmark's n ≪ 2⁶⁴.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// exp returns an exponential variate of mean 1 (Poisson arrival gaps).
func (r *rng) exp() float64 { return -math.Log(1 - r.float()) }

func (r *rng) fill(b []byte) {
	for len(b) >= 8 {
		v := r.next()
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
		b = b[8:]
	}
	if len(b) > 0 {
		v := r.next()
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
	}
}

// quantile returns the q-quantile of sorted by nearest rank; 0 for an
// empty sample (a metric the workload does not produce).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// iqr is the distance between the first and third quartile, computed as
// Python's statistics.quantiles(v, n=4) does (exclusive method), so the
// spreads printed here are the ones the driver computes.
func iqr(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		j := k * (n + 1) / 4 // quartile k sits at position k(n+1)/4, 1-based
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - 4*j
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return q(3) - q(1)
}
