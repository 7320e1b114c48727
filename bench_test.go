package pmuoutage

// Benchmarks mirror the paper's evaluation: one benchmark per figure of
// §V (see DESIGN.md for the index), plus ablation and substrate
// micro-benchmarks. Each figure benchmark runs the corresponding
// experiment harness and reports the measured identification accuracy
// and false-alarm rate as custom metrics (IA, FA), so
//
//	go test -bench=. -benchmem
//
// regenerates both the timings and the paper-shape numbers. The bench
// configuration uses the DC power-flow substrate and the two smaller
// systems to stay fast; cmd/experiments runs the full AC configuration
// over all four systems.

import (
	"context"
	"testing"

	"pmuoutage/internal/cases"
	"pmuoutage/internal/dataset"
	"pmuoutage/internal/detect"
	"pmuoutage/internal/experiments"
	"pmuoutage/internal/mat"
	"pmuoutage/internal/mlr"
	"pmuoutage/internal/pmunet"
	"pmuoutage/internal/powerflow"
)

func benchCfg(systems ...string) experiments.Config {
	if len(systems) == 0 {
		systems = []string{"ieee14", "ieee30"}
	}
	return experiments.Config{
		Systems:    systems,
		TrainSteps: 30,
		TestSteps:  8,
		Seed:       1,
		UseDC:      true,
	}
}

// reportRows attaches the aggregate IA/FA of the subspace method (and
// the MLR baseline when present) to the benchmark output.
func reportRows(b *testing.B, rows []experiments.Row) {
	b.Helper()
	var subIA, subFA, mlrIA, mlrFA float64
	var nSub, nMLR int
	for _, r := range rows {
		switch r.Method {
		case "mlr":
			mlrIA += r.IA
			mlrFA += r.FA
			nMLR++
		default:
			subIA += r.IA
			subFA += r.FA
			nSub++
		}
	}
	if nSub > 0 {
		b.ReportMetric(subIA/float64(nSub), "IA")
		b.ReportMetric(subFA/float64(nSub), "FA")
	}
	if nMLR > 0 {
		b.ReportMetric(mlrIA/float64(nMLR), "IA-mlr")
		b.ReportMetric(mlrFA/float64(nMLR), "FA-mlr")
	}
}

// BenchmarkFig4DetectionGroups regenerates Figure 4: IA/FA as the
// detection groups move from the naive PCA-orthogonal choice to the
// proposed capability-based formation.
func BenchmarkFig4DetectionGroups(b *testing.B) {
	var rows []experiments.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig4(context.Background(), benchCfg("ieee14"))
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, rows)
}

// BenchmarkFig5CompleteData regenerates Figure 5: the complete-data
// case, subspace vs MLR.
func BenchmarkFig5CompleteData(b *testing.B) {
	var rows []experiments.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig5(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, rows)
}

// BenchmarkFig7MissingOutageData regenerates Figure 7: data missing at
// the outage location.
func BenchmarkFig7MissingOutageData(b *testing.B) {
	var rows []experiments.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig7(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, rows)
}

// BenchmarkFig8RandomMissingNormal regenerates Figure 8: normal samples
// with random missing points — distinguishing data problems from
// physical failures.
func BenchmarkFig8RandomMissingNormal(b *testing.B) {
	var rows []experiments.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig8(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, rows)
}

// BenchmarkFig9RandomMissingOutage regenerates Figure 9: outage samples
// with missing data uncorrelated with the outage location.
func BenchmarkFig9RandomMissingOutage(b *testing.B) {
	var rows []experiments.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig9(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, rows)
}

// BenchmarkFig10Reliability regenerates Figure 10: effective FA under
// the Eq. (13)-(15) PMU-network reliability model.
func BenchmarkFig10Reliability(b *testing.B) {
	var rows []experiments.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig10(context.Background(), benchCfg("ieee14"))
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, rows)
}

// BenchmarkAblationProximity compares the projection-residual proximity
// against the literal Eq. (9) regressor, Eq. (11) scaling on/off, and
// the measurement channels (the DESIGN.md ablations).
func BenchmarkAblationProximity(b *testing.B) {
	var rows []experiments.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Ablation(context.Background(), benchCfg("ieee14"))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.Logf("%s", r.String())
	}
	reportRows(b, rows)
}

// --- parallel-pipeline benchmarks ---
//
// These run the worker-pooled stages — dataset generation, training,
// the Fig. 10 Monte Carlo — with Workers = 0 (GOMAXPROCS), so
// `go test -bench=Pipeline -cpu 1,4` measures the sequential baseline
// and the 4-way speedup of the same byte-identical computation.

// BenchmarkPipelineGenerateIEEE30DC measures parallel dataset
// generation — one DC solve per (outage, step) — at the current
// GOMAXPROCS.
func BenchmarkPipelineGenerateIEEE30DC(b *testing.B) {
	g := cases.IEEE30()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.GenerateContext(ctx, g, dataset.GenConfig{Steps: 20, Seed: 1, UseDC: true, Workers: 0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineTrainIEEE30 measures the parallel training path —
// per-line SVDs, per-node subspaces, Eq. 5–7 capability tables — at the
// current GOMAXPROCS.
func BenchmarkPipelineTrainIEEE30(b *testing.B) {
	g := cases.IEEE30()
	d, err := dataset.Generate(g, dataset.GenConfig{Steps: 20, Seed: 1, UseDC: true})
	if err != nil {
		b.Fatal(err)
	}
	nw, err := pmunet.Build(g, 3)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := detect.TrainContext(ctx, d, nw, detect.Config{Workers: 0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineFig10MonteCarlo measures the sharded Fig. 10 Monte
// Carlo reliability estimator at the current GOMAXPROCS.
func BenchmarkPipelineFig10MonteCarlo(b *testing.B) {
	g := cases.IEEE30()
	nw, err := pmunet.Build(g, 3)
	if err != nil {
		b.Fatal(err)
	}
	rel := pmunet.Reliability{RPMU: 0.97, RLink: 0.99}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nw.ReliabilityMonteCarlo(ctx, rel, 100000, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkTrainDetectorIEEE30 measures end-to-end training (data
// generation excluded) on the 30-bus system.
func BenchmarkTrainDetectorIEEE30(b *testing.B) {
	g := cases.IEEE30()
	d, err := dataset.Generate(g, dataset.GenConfig{Steps: 20, Seed: 1, UseDC: true})
	if err != nil {
		b.Fatal(err)
	}
	nw, err := pmunet.Build(g, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := detect.Train(d, nw, detect.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectSingleSample measures one online detection — the
// latency that matters for the paper's "timely detection" claim.
func BenchmarkDetectSingleSample(b *testing.B) {
	g := cases.IEEE30()
	d, err := dataset.Generate(g, dataset.GenConfig{Steps: 20, Seed: 1, UseDC: true})
	if err != nil {
		b.Fatal(err)
	}
	nw, _ := pmunet.Build(g, 3)
	det, err := detect.Train(d, nw, detect.Config{})
	if err != nil {
		b.Fatal(err)
	}
	sample := d.Outages[d.ValidLines[0]].Samples[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Detect(sample); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLRTrainIEEE14 measures baseline training.
func BenchmarkMLRTrainIEEE14(b *testing.B) {
	g := cases.IEEE14()
	d, err := dataset.Generate(g, dataset.GenConfig{Steps: 20, Seed: 1, UseDC: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mlr.Train(d, mlr.Config{Epochs: 100}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPowerFlowScaling is the power-flow scaling ladder: one cold
// (flat-start) AC solve and one DC solve per grid size on both solver
// backends, named <grid>/<dense|sparse>/<ac|dc>. Every (grid, solver)
// pair computes the same solution (the parity tests in
// internal/powerflow pin this), so the dense/sparse ratio shows where
// the SparseBusThreshold dispatch pays off. ieee118/dense/ac is the
// Newton-Raphson solve of the largest paper system, the inner loop of
// AC data generation. The synth1000 rows skip under -short: each dense
// 1000-bus AC solve takes seconds.
func BenchmarkPowerFlowScaling(b *testing.B) {
	solvers := []struct {
		name string
		s    powerflow.Solver
	}{{"dense", powerflow.SolverDense}, {"sparse", powerflow.SolverSparse}}
	for _, name := range []string{"ieee14", "ieee30", "ieee57", "ieee118", "synth300", "synth1000"} {
		b.Run(name, func(b *testing.B) {
			if name == "synth1000" && testing.Short() {
				b.Skip("dense 1000-bus AC takes seconds per solve")
			}
			g, err := cases.Load(name)
			if err != nil {
				b.Fatal(err)
			}
			for _, sv := range solvers {
				// Flat start: the built-in grids store their solved state,
				// and a warm start from the exact solution converges before
				// any factorization runs — measuring nothing.
				b.Run(sv.name+"/ac", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := powerflow.SolveAC(g, powerflow.Options{Solver: sv.s, FlatStart: true}); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.Run(sv.name+"/dc", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := powerflow.SolveDCWith(g, sv.s); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkDatasetGenerateIEEE14AC measures the full AC data-generation
// pipeline for the smallest system.
func BenchmarkDatasetGenerateIEEE14AC(b *testing.B) {
	g := cases.IEEE14()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Generate(g, dataset.GenConfig{Steps: 10, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVDPhasorMatrix measures the SVD at the shape used by
// subspace learning on the largest system (118 features x 40 samples).
func BenchmarkSVDPhasorMatrix(b *testing.B) {
	x := mat.NewDense(118, 40)
	for i := 0; i < 118; i++ {
		for j := 0; j < 40; j++ {
			x.Set(i, j, float64((i*37+j*11)%100)/100)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.FactorSVD(x)
	}
}

// BenchmarkExtensionRecovery runs the recover-then-classify extension
// study: plain MLR vs MLR with [8]-style subspace imputation vs the
// recovery-free subspace method on the Fig. 7 scenario.
func BenchmarkExtensionRecovery(b *testing.B) {
	var rows []experiments.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Recovery(context.Background(), benchCfg("ieee14"))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.Logf("%s", r.String())
	}
	reportRows(b, rows)
}

// BenchmarkExtensionMultiOutage runs the severe-event extension: two
// lines of one node out simultaneously, with and without that node's
// PMU.
func BenchmarkExtensionMultiOutage(b *testing.B) {
	var rows []experiments.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.MultiOutage(context.Background(), benchCfg("ieee14"))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.Logf("%s", r.String())
	}
	reportRows(b, rows)
}
