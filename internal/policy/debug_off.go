//go:build !eventqdebug

package policy

// Without the eventqdebug build tag the Queue self-checks compile away.
const debugChecks = false
