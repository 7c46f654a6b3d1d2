//go:build race

package engine

// raceEnabled reports a -race build: sync.Pool drops a random share of
// its Puts under the race detector, so allocation counts differ there.
const raceEnabled = true
