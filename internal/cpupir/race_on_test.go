//go:build race

package cpupir

// raceEnabled lets allocation-count assertions skip themselves under
// the race detector, whose instrumentation perturbs them.
const raceEnabled = true
