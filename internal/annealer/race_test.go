//go:build race

package annealer

// raceEnabled reports whether the test binary runs under the race
// detector, whose sync.Pool drops a random share of Puts and so makes
// allocation counts noisy.
const raceEnabled = true
