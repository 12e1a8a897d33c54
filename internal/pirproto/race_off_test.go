//go:build !race

package pirproto

const raceEnabled = false
