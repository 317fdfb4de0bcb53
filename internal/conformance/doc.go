// Package conformance holds the cross-backend transport conformance suite:
// one table of message-passing semantics (eager, rendezvous, ANY_TAG with
// overtaking, persistent requests, WaitAny, and the same on a communicator
// asserting no wildcards, which refuses ANY_TAG) executed over every transport
// backend — the simulated fabric and real TCP — to pin down that the runtime
// behaves identically regardless of the wire underneath. The suite runs
// under -race in CI (go test -run Conformance -race ./internal/conformance).
package conformance
