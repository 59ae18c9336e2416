//go:build race

package store

// raceEnabled reports whether the race detector instruments this build;
// allocation-count pins are skipped under it.
const raceEnabled = true
