//go:build race

package cases

// raceEnabled reports whether the race detector is compiled in. The
// 1000-bus scale build skips under it: its feasibility loop is tight
// single-goroutine numerics, and instrumentation stretches the ~1 s
// build to ~17 s (2-CPU linux/amd64) for no extra coverage. The 300-bus
// build takes ~2 s instrumented and runs. `make verify` also runs the
// scale tests uninstrumented, so synth1000 is still built every gate.
const raceEnabled = true
