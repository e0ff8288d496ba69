//go:build race

package lab

// raceEnabled: the race detector drops items a sync.Pool is handed at
// random, so the pooled codec's allocation bounds do not hold under it.
const raceEnabled = true
