//go:build race

package core

// raceEnabled reports a build under the race detector, where sync.Pool drops
// a quarter of its Puts on purpose: deliver's completion scratch is then
// reallocated at random and an allocation count through it cannot be pinned.
const raceEnabled = true
