//go:build race

package sqlparse

// The race detector makes sync.Pool drop a quarter of its puts, so
// allocation counts of a pooled parse are not exact under it.
func init() { raceEnabled = true }
