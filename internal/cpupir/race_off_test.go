//go:build !race

package cpupir

const raceEnabled = false
