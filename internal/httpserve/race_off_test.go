//go:build !race

package httpserve

// raceEnabled reports whether the race detector is compiled in; see
// race_on_test.go for why the ratio gates consult it.
const raceEnabled = false
