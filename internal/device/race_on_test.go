//go:build race

package device

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// items at random, so pooled-allocation counts are meaningless under it.
const raceEnabled = true
