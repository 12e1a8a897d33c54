//go:build race

package pirproto

// raceEnabled lets allocation-count assertions skip themselves under
// the race detector, whose instrumentation perturbs them (and which
// makes sync.Pool drop items at random).
const raceEnabled = true
