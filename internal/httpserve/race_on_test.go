//go:build race

package httpserve

// raceEnabled reports whether the race detector is compiled in. The
// ratio gates in gate_test.go skip under it: instrumentation slows the
// two sides of each ratio by different factors, so the bounds would
// measure the detector, not the code. `make bench` runs them
// uninstrumented every gate.
const raceEnabled = true
