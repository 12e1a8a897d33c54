//go:build race

package engine_test

// raceEnabled lets allocation-count assertions skip themselves under
// the race detector, whose instrumentation perturbs them.
const raceEnabled = true
