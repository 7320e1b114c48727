package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"

	"pmuoutage"
	"pmuoutage/api"
	"pmuoutage/internal/dataset"
	"pmuoutage/internal/grid"
	"pmuoutage/internal/httpserve"
	"pmuoutage/internal/par"
	"pmuoutage/internal/wire"
)

// Every workload serves the same model: ieee118, DC, trained on the
// library-default 40 steps per scenario with seed 1.
const (
	caseName   = "ieee118"
	useDC      = true
	trainSteps = 40
)

// setups is how many times a run sets the system up; setup_s and
// train_s are the medians.
const setups = 3

// Shares of --seconds given to the open-loop and closed-loop phases;
// the patch cycles and host probes take the rest.
const openShare, closedShare = 0.6, 0.25

// workload is one named traffic mix. Each loads a different layer; the
// rationale of each is in LEDGER.md and in BENCHMARK.json.
type workload struct {
	name string
	// backends > 1 puts the router in front of them.
	backends int
	// ingest sends binary wire frames to /v1/ingest instead of
	// single-sample JSON to /v1/detect.
	ingest bool
	// openRate is the fixed open-loop request rate (1/s): about a
	// quarter of the closed-loop throughput measured at the commit that
	// defined the benchmark (a seventh for ingest). At half, a spell of
	// the host taking a CPU away saturated the queue and moved p50 by up
	// to 2x between runs; at these rates p50 tracks the system's own
	// cost.
	openRate float64
	// rounds is how many closed-loop and open-loop segments a run
	// alternates. The machine may slow down for a second or more at a
	// time; spreading each phase over several segments and reporting
	// the median segment keeps one slow spell from setting a run's
	// figures.
	rounds int
	// inputs pre-generates the workload's request pool from the seed.
	inputs func(ctx context.Context, in inputEnv) ([]item, error)
}

// inputEnv is what input generation may read: the grid (for the data
// pipeline), the served system (for its valid lines and PMU network),
// and the workload seed.
type inputEnv struct {
	g    *grid.Grid
	sys  *pmuoutage.System
	seed int64
}

// item is one pre-generated request: the sample, its ground truth
// (outage line indices; empty for normal operation), and the encoded
// request body.
type item struct {
	sample pmuoutage.Sample
	truth  []int
	body   []byte
}

var workloads = []*workload{
	{
		name: "outage118", backends: 1, openRate: 110, rounds: 20,
		inputs: func(ctx context.Context, in inputEnv) ([]item, error) {
			return labelledPool(ctx, in, in.sys.ValidLines(), 6, false)
		},
	},
	{
		name: "pmuloss118", backends: 1, openRate: 100, rounds: 20,
		inputs: func(ctx context.Context, in inputEnv) ([]item, error) {
			return labelledPool(ctx, in, in.sys.ValidLines(), 6, true)
		},
	},
	{
		name: "ingest118-fleet", backends: 2, ingest: true, openRate: 1000, rounds: 30,
		inputs: func(ctx context.Context, in inputEnv) ([]item, error) {
			return framePool(ctx, in, 4800)
		},
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// genConfig is the data-pipeline configuration of the workload's
// inputs: steps samples per scenario under a seed derived from the
// workload seed, never the model's training seed.
func genConfig(in inputEnv, steps int) dataset.GenConfig {
	return dataset.GenConfig{Steps: steps, Seed: in.seed*7919 + 17, UseDC: useDC}
}

// labelledPool simulates perLine samples of each listed single-line
// outage plus a quarter as many normal-operation samples (about 80%
// outage, 20% normal), shuffled. With masked set, every sample loses 1
// to 3 buses: alternately at an outage endpoint (the Fig. 7 pattern)
// and at least two hops away from it (the Fig. 9 pattern); normal
// samples lose random buses.
func labelledPool(ctx context.Context, in inputEnv, lines []int, perLine int, masked bool) ([]item, error) {
	gen := genConfig(in, perLine)
	sets, err := par.Map(ctx, runtime.GOMAXPROCS(0), len(lines), func(ctx context.Context, k int) (*dataset.Set, error) {
		set, err := dataset.GenerateScenarioContext(ctx, in.g, dataset.Scenario{grid.Line(lines[k])}, gen)
		if errors.Is(err, dataset.ErrInvalidScenario) {
			return nil, nil // diverged under this seed's load draw: left out
		}
		return set, err
	})
	if err != nil {
		return nil, fmt.Errorf("simulating outages: %w", err)
	}
	var items []item
	for k, set := range sets {
		if set == nil {
			continue
		}
		for _, s := range set.Samples {
			items = append(items, item{sample: pmuoutage.Sample{Vm: s.Vm, Va: s.Va}, truth: []int{lines[k]}})
		}
	}
	normGen := gen
	normGen.Steps = len(items) / 4
	normal, err := dataset.GenerateScenarioContext(ctx, in.g, nil, normGen)
	if err != nil {
		return nil, fmt.Errorf("simulating normal operation: %w", err)
	}
	for _, s := range normal.Samples {
		items = append(items, item{sample: pmuoutage.Sample{Vm: s.Vm, Va: s.Va}})
	}
	rng := rand.New(rand.NewSource(in.seed))
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	for i := range items {
		if masked {
			items[i].sample.Missing = lossPattern(rng, in.g, items[i].truth, i%2 == 0)
		}
		body, err := detectBody(items[i].sample)
		if err != nil {
			return nil, err
		}
		items[i].body = body
	}
	return items, nil
}

// lossPattern draws 1 to 3 missing buses. For an outage sample, atEnd
// puts one of them on an outage endpoint and the rest at least two hops
// from both endpoints; otherwise all of them are that far away.
func lossPattern(rng *rand.Rand, g *grid.Grid, truth []int, atEnd bool) []int {
	k := 1 + rng.Intn(3)
	n := g.N()
	var far []int
	var ends [2]int
	if len(truth) > 0 {
		a, b := g.Endpoints(grid.Line(truth[0]))
		ends = [2]int{a, b}
		da, db := g.HopDistances(a), g.HopDistances(b)
		for i := 0; i < n; i++ {
			if da[i] >= 2 && db[i] >= 2 {
				far = append(far, i)
			}
		}
	} else {
		for i := 0; i < n; i++ {
			far = append(far, i)
		}
		atEnd = false
	}
	var out []int
	if atEnd {
		out = append(out, ends[rng.Intn(2)])
		k--
	}
	rng.Shuffle(len(far), func(i, j int) { far[i], far[j] = far[j], far[i] })
	return append(out, far[:k]...)
}

// framePool simulates n normal-operation samples and encodes each as a
// binary wire frame, with PMU loss drawn by System.DrawMissing at 0.9
// system reliability. The samples come from independent 50-step runs
// of the load process: gate firings on normal data cluster in time, so
// one long run would make the share of fired frames swing from seed to
// seed.
func framePool(ctx context.Context, in inputEnv, n int) ([]item, error) {
	const steps = 50
	sets, err := par.Map(ctx, runtime.GOMAXPROCS(0), (n+steps-1)/steps, func(ctx context.Context, k int) (*dataset.Set, error) {
		gen := genConfig(in, steps)
		gen.Seed += int64(k) * 104729
		return dataset.GenerateScenarioContext(ctx, in.g, nil, gen)
	})
	if err != nil {
		return nil, fmt.Errorf("simulating normal operation: %w", err)
	}
	var samples []dataset.Sample
	for _, set := range sets {
		samples = append(samples, set.Samples...)
	}
	f := wire.GetFrame()
	defer wire.PutFrame(f)
	items := make([]item, n)
	for i, s := range samples[:n] {
		missing, err := in.sys.DrawMissing(0.9, in.seed*1000003+int64(i))
		if err != nil {
			return nil, err
		}
		items[i].sample = pmuoutage.Sample{Vm: s.Vm, Va: s.Va, Missing: missing}
		if items[i].body, err = frameBody(f, uint32(i), items[i].sample); err != nil {
			return nil, err
		}
	}
	return items, nil
}

// detectBody is the JSON body of a single-sample detect request.
func detectBody(s pmuoutage.Sample) ([]byte, error) {
	return json.Marshal(api.DetectRequest{Shard: shardName, Samples: []pmuoutage.Sample{s}})
}

// frameBody encodes s as one binary wire frame, its missing buses
// flagged in the frame's bitmap.
func frameBody(f *wire.Frame, seq uint32, s pmuoutage.Sample) ([]byte, error) {
	var mask []bool
	if len(s.Missing) > 0 {
		mask = make([]bool, len(s.Vm))
		for _, b := range s.Missing {
			mask[b] = true
		}
	}
	if err := f.Pack(seq, s.Vm, s.Va, mask); err != nil {
		return nil, err
	}
	return wire.AppendFrame(nil, f)
}

// endpoint is the request path and content type of the workload's
// traffic.
func (w *workload) endpoint() (path, contentType string) {
	if w.ingest {
		return "/v1/ingest?shard=" + shardName, httpserve.FrameContentType
	}
	return "/v1/detect", "application/json"
}
