//go:build eventqdebug

package sim

// With the eventqdebug build tag every scheduler pass re-verifies the job
// index against the waiting queue (see checkQueue) and panics on the first
// inconsistency.
const debugChecks = true
