//go:build race

package cluster

// raceEnabled reports a -race build, whose instrumentation changes what
// allocates; the allocation pins skip under it.
const raceEnabled = true
