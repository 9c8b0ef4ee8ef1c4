//go:build race

package router_test

// raceEnabled: sync.Pool drops a quarter of what it is handed under the
// race detector, so allocation counts are not the program's own.
const raceEnabled = true
