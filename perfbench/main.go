// Command perfbench is the repository benchmark. It runs the whole
// system in one process — trained model, service and HTTP daemons on
// loopback listeners, the router where a workload has one, and the
// load generator — drives one named workload, checks the outputs, and
// prints the metrics as one JSON object on the last line of standard
// output:
//
//	perfbench --workload outage118 --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the traced run
// that reports the per-layer ledger instead. LEDGER.md describes the
// workloads, the metrics, and the layer each metric belongs to.
// Results, with an environment stamp, also go to .bench_out/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// outDir is the benchmark's output path, relative to the checkout root.
const outDir = ".bench_out"

// runTimeout keeps a run inside its time budget even if the system
// under test hangs.
const runTimeout = 170 * time.Second

func main() {
	os.Exit(run())
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// envStamp says where and how a result was measured.
type envStamp struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seconds    float64 `json:"run_seconds"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      int     `json:"trace"`
	Started    string  `json:"started"`
}

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured time per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end run")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments:", err)
		flag.Usage()
		return 2
	}
	env := envStamp{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seconds: *seconds, Workload: w.name, Seed: *seed, Trace: *trace,
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	var spans *spanLog
	if *trace == 1 {
		spans = newSpanLog()
	}
	res, err := runWorkload(ctx, w, *seed, *seconds, *trace == 1, spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	stamp, _ := json.Marshal(env) // plain data: cannot fail
	fmt.Printf("env %s\n", stamp)
	for _, p := range res.Phases {
		fmt.Printf("phase %-13s %-6s sent=%d ok=%d shed=%d failed=%d unsent=%d elapsed=%.2fs p50=%.3fms p99=%.3fms late_p99=%.3fms\n",
			p.Name, p.Loop, p.Sent, p.OK, p.Shed, p.Failed, p.Unsent, p.ElapsedS, p.P50Ms, p.P99Ms, p.LateP99Ms)
	}
	printMetrics("metric", res.Metrics)
	printMetrics("also", res.Extra)
	for _, f := range res.Failures {
		fmt.Println("CHECK FAILED:", f)
	}

	for k, m := range res.Metrics {
		res.Metrics[k] = metric{finite(m.Value), m.Unit}
	}
	for k, m := range res.Extra {
		res.Extra[k] = metric{finite(m.Value), m.Unit}
	}
	if err := writeResults(env, res, spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing results:", err)
		return 1
	}
	out, err := json.Marshal(summary{
		Correct: len(res.Failures) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: res.Metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if len(res.Failures) > 0 {
		return 1
	}
	return 0
}

func printMetrics(label string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%s %-24s %14.6g %s\n", label, k, ms[k].Value, ms[k].Unit)
	}
}

// finite maps +Inf (a percentile that fell on a failed request, which
// misses every limit) to the largest float JSON can carry.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// writeResults stores the run's record (and, traced, its spans) under
// the output path.
func writeResults(env envStamp, res *runResult, spans *spanLog) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", env.Workload, env.Seed, env.Trace))
	data, err := json.MarshalIndent(struct {
		Env envStamp `json:"env"`
		*runResult
	}{env, res}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if spans != nil {
		return spans.write(base + "-spans.json")
	}
	return nil
}
