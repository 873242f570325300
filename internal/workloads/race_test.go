//go:build race

package workloads

// The race detector adds allocations of its own, so allocation counts
// are not exact under it.
func init() { raceEnabled = true }
