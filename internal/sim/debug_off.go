//go:build !eventqdebug

package sim

// Without the eventqdebug build tag the queue self-check compiles away.
const debugChecks = false
