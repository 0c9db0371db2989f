//go:build eventqdebug

package policy

// With the eventqdebug build tag every Queue mutation re-verifies the index
// from scratch (see Queue.check) and panics on the first broken invariant.
// The check is O(Q), so armed runs are slow on deep queues.
const debugChecks = true
