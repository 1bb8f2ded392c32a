//go:build race

package nn

// raceEnabled reports a -race build: sync.Pool drops items at random
// under the race detector, so allocation counts are meaningless there.
const raceEnabled = true
