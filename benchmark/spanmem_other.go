//go:build !unix

package main

// allocSpans returns an empty span slice of the given capacity from the
// heap: no anonymous mapping on this platform.
func allocSpans(capacity int) ([]span, func()) {
	return make([]span, 0, capacity), func() {}
}
