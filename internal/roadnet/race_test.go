//go:build race

package roadnet

// raceEnabled reports a -race build, where sync.Pool drops a random share of
// Put items on purpose, so pooled scratch is reallocated at random.
const raceEnabled = true
