package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"pmuoutage"
	"pmuoutage/api"
	"pmuoutage/internal/cases"
	"pmuoutage/internal/grid"
	"pmuoutage/internal/httpserve"
	"pmuoutage/internal/metrics"
)

// stack is one set-up system: the trained model, a direct library view
// of it, the daemons, and the router when the workload has one.
type stack struct {
	model    *pmuoutage.Model
	sys      *pmuoutage.System
	backends []*backend
	router   *fleetRouter
}

// front is where the workload's traffic goes.
func (s *stack) front() string {
	if s.router != nil {
		return s.router.lb.url
	}
	return s.backends[0].lb.url
}

func (s *stack) close() {
	if s.router != nil {
		s.router.close()
	}
	for _, b := range s.backends {
		b.close()
	}
}

// setUp trains the workload's model and boots the daemons (and router)
// until they serve. It returns the training time separately.
func setUp(ctx context.Context, w *workload) (*stack, time.Duration, error) {
	t0 := time.Now()
	m, err := pmuoutage.TrainModelContext(ctx, pmuoutage.Options{
		Case: caseName, TrainSteps: trainSteps, UseDC: useDC, Seed: 1,
		Workers: runtime.GOMAXPROCS(0),
	})
	if err != nil {
		return nil, 0, fmt.Errorf("training: %w", err)
	}
	train := time.Since(t0)
	st := &stack{model: m}
	if st.sys, err = pmuoutage.NewSystemFromModel(m); err != nil {
		return nil, 0, err
	}
	for i := 0; i < w.backends; i++ {
		b, err := startBackend(ctx, m)
		if err != nil {
			st.close()
			return nil, 0, err
		}
		st.backends = append(st.backends, b)
	}
	if w.backends > 1 {
		if st.router, err = startRouter(ctx, st.backends); err != nil {
			st.close()
			return nil, 0, err
		}
	}
	return st, train, nil
}

// responses collects (pool index, reply body) pairs for the output
// checks, which run after the timed phases.
type responses struct {
	mu  sync.Mutex
	got []reply
}

type reply struct {
	item int
	body []byte
}

func (r *responses) add(item int, body []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.got = append(r.got, reply{item, body})
}

// sender builds the phase's send function: request i posts pool item
// (offset+i) mod len(items) to the front door and keeps the reply for
// the checks when keep is non-nil.
func sender(hc *http.Client, w *workload, url string, items []item, offset int, keep *responses) sendFunc {
	path, ct := w.endpoint()
	return func(ctx context.Context, i int) outcome {
		k := (offset + i) % len(items)
		status, body, err := post(ctx, hc, url+path, ct, items[k].body)
		o := classify(status, body, err)
		if o == outcomeOK && keep != nil {
			keep.add(k, body)
		}
		return o
	}
}

// runResult is everything one run measured.
type runResult struct {
	Phases   []*phase          `json:"phases"`
	Failures []string          `json:"check_failures,omitempty"`
	Metrics  map[string]metric `json:"metrics"`
	Extra    map[string]metric `json:"extra"`
	InputsS  float64           `json:"inputs_s"`
	Patches  int               `json:"patch_cycles"`
	// ProbesMs is every host probe reading of the run, in order.
	ProbesMs []float64 `json:"probes_ms"`

	attempted, failed int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{v, unit}
}

func (r *runResult) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// runWorkload sets the system up, drives the workload, checks its
// outputs, and returns the end-to-end metrics (or, traced, the
// per-layer ones).
func runWorkload(ctx context.Context, w *workload, seed int64, seconds float64, traced bool, spans *spanLog) (*runResult, error) {
	res := &runResult{Metrics: map[string]metric{}, Extra: map[string]metric{}}
	// The grid the inputs are simulated on; its cost is cases.load_s.
	t0 := time.Now()
	g, err := cases.Load(caseName)
	if err != nil {
		return nil, err
	}
	loadS := time.Since(t0).Seconds()
	reps := setups
	if traced {
		reps = 1
	}
	var st *stack
	var setupS, trainS []float64
	for r := 0; r < reps; r++ {
		if st != nil {
			st.close()
			st = nil
			runtime.GC()
		}
		t0 := time.Now()
		s, train, err := setUp(ctx, w)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		trainS = append(trainS, train.Seconds())
		st = s
	}
	defer st.close()
	// Two collections: the first only moves sync.Pool contents to the
	// victim cache, so one GC leaves up to a pool's worth of buffers live.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	t0 = time.Now()
	in := inputEnv{g: g, sys: st.sys, seed: seed}
	items, err := w.inputs(ctx, in)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	res.InputsS = time.Since(t0).Seconds()

	if traced {
		res.set("cases.load_s", loadS, "s")
		if err := traceWorkload(ctx, w, st, in, items, seconds, spans, res); err != nil {
			return nil, err
		}
		return res, nil
	}

	nproc := runtime.GOMAXPROCS(0)
	hc := newHTTPClient(nproc)
	defer hc.CloseIdleConnections()
	openN := int(w.openRate * openShare * seconds / float64(w.rounds))
	closedD := time.Duration(closedShare * seconds / float64(w.rounds) * float64(time.Second))
	ref, err := newRefresher(st, seed)
	if err != nil {
		return nil, err
	}
	defer ref.close()

	// Each round is a closed-loop segment and an open-loop segment on a
	// fixed model, whose replies are all checked, then one patch cycle
	// that swaps the served model for the next round. A host probe
	// follows each of the three.
	type checked struct {
		model *pmuoutage.Model
		keep  *responses
	}
	var batches []checked
	var rounds []round
	var perr error
	next := 0
	probes := []float64{hostProbe()}
	for r := 0; r < w.rounds && perr == nil; r++ {
		keep := &responses{}
		batches = append(batches, checked{ref.model, keep})
		cycles := len(ref.times)
		cp := closedLoop(ctx, fmt.Sprintf("closed%d", r), nproc, closedD, sender(hc, w, st.front(), items, next, keep))
		next += cp.Sent
		probes = append(probes, hostProbe())
		op := openLoop(ctx, fmt.Sprintf("open%d", r), nproc, w.openRate, openN, sender(hc, w, st.front(), items, next, keep), nil)
		next += op.Sent
		probes = append(probes, hostProbe())
		perr = ref.cycle(ctx, hc)
		probes = append(probes, hostProbe())
		res.Phases = append(res.Phases, cp, op)
		rounds = append(rounds, round{
			tput: float64(cp.OK) / cp.ElapsedS, lat: op.latMs, late: op.lateMs, patches: ref.times[cycles:],
		})
	}
	for _, p := range res.Phases {
		res.attempted += p.attempted()
		res.failed += p.bad()
	}
	res.Patches = len(ref.times)
	res.attempted += len(ref.times)
	if perr != nil {
		res.fail("patch cycles: %v", perr)
		res.attempted++
		res.failed++
	}

	// Ingest replies carry no detector output, so every frame is
	// checked the same way whatever model served it.
	var base []reply
	for _, b := range batches {
		if w.ingest || b.model == st.model {
			base = append(base, b.keep.got...)
		}
	}
	ia, fa, err := checkAll(ctx, w, st, items, base, res)
	if err != nil {
		return nil, err
	}
	for _, b := range batches {
		if w.ingest || b.model == st.model {
			continue
		}
		sys, err := pmuoutage.NewSystemFromModel(b.model)
		if err != nil {
			return nil, err
		}
		if err := newOracle(sys, items).check(ctx, b.keep.got, res); err != nil {
			return nil, err
		}
	}

	// Every wall-clock figure is reported twice: as measured (raw.*)
	// and scaled to a quiet host by the run's host factor, which the
	// gate reads.
	h := hostFactor(probes)
	lat := pick(rounds, func(r round) []float64 { return r.lat })
	timing := func(name string, raw, exp float64, unit string) {
		res.Extra["raw."+name] = metric{raw, unit}
		res.set(name, raw/math.Pow(h, exp), unit)
	}
	timing("setup_s", median(setupS), setupExp, "s")
	timing("p50_ms", quantile(lat, 0.50), latExp, "ms")
	timing("patch_s", median(pick(rounds, func(r round) []float64 { return r.patches })), busyExp, "s")
	timing("throughput_sps", median(pick(rounds, func(r round) []float64 { return []float64{r.tput} })), -busyExp, "1/s")
	res.set("heap_mb", heapMB, "MB")
	res.set("ok_frac", 1-float64(res.failed)/float64(res.attempted), "ratio")
	res.set("ia", ia, "ratio")
	res.set("one_minus_fa", 1-fa, "ratio")
	res.Extra["p99_ms"] = metric{quantile(lat, 0.99) / math.Pow(h, latExp), "ms"}
	res.Extra["raw.p99_ms"] = metric{quantile(lat, 0.99), "ms"}
	res.Extra["host.factor"] = metric{h, "ratio"}
	res.Extra["train_s"] = metric{median(trainS) / math.Pow(h, setupExp), "s"}
	res.Extra["fail_frac"] = metric{float64(res.failed) / float64(res.attempted), "ratio"}
	res.Extra["fa"] = metric{fa, "ratio"}
	res.Extra["bench.late_p99_ms"] = metric{quantile(pick(rounds, func(r round) []float64 { return r.late }), 0.99), "ms"}
	res.ProbesMs = probes
	return res, nil
}

// checkAll checks replies served by the set-up model and returns Eq. 12
// IA and FA: over the labelled pool for detect workloads, over the
// acknowledged frames for ingest.
func checkAll(ctx context.Context, w *workload, st *stack, items []item, got []reply, res *runResult) (ia, fa float64, err error) {
	if w.ingest {
		ia, fa = checkIngest(st, got, res)
		return ia, fa, nil
	}
	o := newOracle(st.sys, items)
	if err := o.answer(ctx, allItems(len(items))); err != nil {
		return 0, 0, err
	}
	ia, fa = o.accuracy()
	return ia, fa, o.check(ctx, got, res)
}

// round is what one closed-loop plus open-loop round measured.
type round struct {
	tput      float64   // closed-loop replies per second
	lat, late []float64 // open-loop latency and lateness per request, ms
	patches   []float64 // patch cycle times, s
}

// refProbeMs is what hostProbe reads on a quiet host: the 2-vCPU cloud
// VM the benchmark was defined on read 5.3-6.3 ms while quiet.
const refProbeMs = 6.0

// A run's raw figures move with its host factor h about as h to a power
// that depends on how busy the figure keeps the host: set-up, patch
// cycles and the closed loop keep every vCPU busy, while an open-loop
// request at the workloads' rates mostly runs alone. Each figure is
// divided by h to its power (throughput multiplied). The powers were
// chosen over 120 runs, four sets of ten seeds on each workload at host
// factors from 0.94 to 2.8, as the ones that kept both the worst set's
// spread (IQR / median) and the largest gap between set medians small.
const (
	busyExp  = 0.8 // throughput_sps, patch_s
	latExp   = 0.5 // p50_ms, p99_ms
	setupExp = 1.0 // setup_s, train_s
)

// hostFactor is how much slower than a quiet host a run ran: the mean
// of its host probe readings, less the fastest and the slowest tenth,
// over refProbeMs. The shared 2-vCPU cloud VMs the benchmark runs on
// change speed by up to 2.8x for seconds to minutes at a time, without
// reporting steal time, so wall times of the same code on the same
// inputs drift with the host from run to run. The mean follows the
// host's speed averaged over the run, as the timings do; trimming keeps
// one probe that landed on a long stall from moving it.
func hostFactor(probes []float64) float64 {
	s := append([]float64(nil), probes...)
	sort.Float64s(s)
	k := len(s) / 10
	sum := 0.0
	for _, p := range s[k : len(s)-k] {
		sum += p
	}
	return sum / float64(len(s)-2*k) / refProbeMs
}

func pick(rs []round, f func(round) []float64) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, f(r)...)
	}
	return out
}

// hostProbe times a fixed chain of arithmetic on every CPU at once and
// returns the wall time in milliseconds. It runs no program code and
// runs while no request is in flight, but in the program's process,
// beside the program's idle goroutines (the router's 250 ms health
// probe and stats scrape on ingest118-fleet, the daemons' timers) and
// the garbage collector. So it first forces a collection, which
// returns only once the cycle has finished marking and sweeping: no
// collection is in flight when the spin starts. The spin is one
// goroutine per P and shorter than the Go scheduler's 10 ms time
// slice on a quiet host, so the program's goroutines made runnable
// meanwhile wait for it rather than share its time.
func hostProbe() float64 {
	runtime.GC()
	n := runtime.GOMAXPROCS(0)
	out := make([]float64, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := 1.0
			for i := 0; i < 2_000_000; i++ {
				x = x*1.0000001 + 1e-9
			}
			out[g] = x
		}(g)
	}
	wg.Wait()
	return ms(time.Since(t0))
}

func allItems(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// oracle holds one model's direct library answers, computed on demand
// with System.DetectBatch, for checking served replies.
type oracle struct {
	sys   *pmuoutage.System
	items []item
	want  map[int]*pmuoutage.Report
}

func newOracle(sys *pmuoutage.System, items []item) *oracle {
	return &oracle{sys: sys, items: items, want: map[int]*pmuoutage.Report{}}
}

// answer computes the direct answers of the listed pool items.
func (o *oracle) answer(ctx context.Context, idx []int) error {
	var todo []int
	var samples []pmuoutage.Sample
	for _, k := range idx {
		if _, ok := o.want[k]; !ok {
			o.want[k] = nil
			todo = append(todo, k)
			samples = append(samples, o.items[k].sample)
		}
	}
	reps, err := o.sys.DetectBatchContext(ctx, samples)
	if err != nil {
		return fmt.Errorf("direct DetectBatch: %w", err)
	}
	for i, k := range todo {
		o.want[k] = reps[i]
	}
	return nil
}

// check compares every reply with the direct answer for its item and
// records each mismatch as a check failure.
func (o *oracle) check(ctx context.Context, got []reply, res *runResult) error {
	idx := make([]int, len(got))
	for i, r := range got {
		idx[i] = r.item
	}
	if err := o.answer(ctx, idx); err != nil {
		return err
	}
	for _, r := range got {
		var resp api.DetectResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			res.fail("item %d: undecodable reply: %v", r.item, err)
			continue
		}
		if err := httpserve.CompareReports(resp.Reports, []*pmuoutage.Report{o.want[r.item]}); err != nil {
			res.fail("item %d: %v", r.item, err)
		}
	}
	return nil
}

// accuracy is Eq. 12 IA and FA over the whole labelled pool, which
// answer must have covered.
func (o *oracle) accuracy() (ia, fa float64) {
	var acc metrics.Accumulator
	for i, it := range o.items {
		acc.Add(lines(it.truth), reportLines(o.want[i]))
	}
	return acc.IA(), acc.FA()
}

// checkIngest checks that the backends admitted exactly the frames
// acknowledged. Every frame is normal operation, so by Eq. 12 with the
// confirmed event as the decision, FA is the share of frames that
// confirmed an event and IA the share that confirmed none.
func checkIngest(st *stack, got []reply, res *runResult) (ia, fa float64) {
	events := 0
	for _, r := range got {
		var resp api.IngestResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			res.fail("frame %d: undecodable reply: %v", r.item, err)
			continue
		}
		if resp.Event != nil {
			events++
		}
	}
	var admitted uint64
	for _, b := range st.backends {
		admitted += b.svc.Stats()[shardName].FramesBinary
	}
	if admitted != uint64(len(got)) {
		res.fail("backends admitted %d frames, %d acknowledged", admitted, len(got))
	}
	if len(got) == 0 {
		res.fail("no frame acknowledged")
		return 0, 1
	}
	fa = float64(events) / float64(len(got))
	return 1 - fa, fa
}

func lines(idx []int) []grid.Line {
	out := make([]grid.Line, len(idx))
	for i, e := range idx {
		out[i] = grid.Line(e)
	}
	return out
}

func reportLines(r *pmuoutage.Report) []grid.Line {
	out := make([]grid.Line, len(r.Lines))
	for i, l := range r.Lines {
		out[i] = grid.Line(l.Index)
	}
	return out
}

// refresher runs patch cycles against the daemons. Each cycle
// refreshes up to two random valid lines: it trains a patch against
// the served model, writes it, reloads through the front door, and
// checks that every backend serves a new generation whose fingerprint
// is the patch's result fingerprint. A cycle's time runs from the
// start of patch training to the reload reply.
type refresher struct {
	st    *stack
	dir   string
	seed  int64
	rng   *rand.Rand
	valid []int
	model *pmuoutage.Model // the model the daemons serve
	gens  []uint64
	times []float64
}

func newRefresher(st *stack, seed int64) (*refresher, error) {
	dir, err := os.MkdirTemp(".bench_build", "patches")
	if err != nil {
		return nil, err
	}
	r := &refresher{st: st, dir: dir, seed: seed, rng: rand.New(rand.NewSource(seed + 31)),
		valid: st.sys.ValidLines(), model: st.model}
	for _, b := range st.backends {
		r.gens = append(r.gens, b.svc.Shards()[0].Generation)
	}
	return r, nil
}

func (r *refresher) close() { _ = os.RemoveAll(r.dir) }

func (r *refresher) cycle(ctx context.Context, hc *http.Client) error {
	c := len(r.times)
	lines := []int{r.valid[r.rng.Intn(len(r.valid))], r.valid[r.rng.Intn(len(r.valid))]}
	if lines[0] == lines[1] {
		lines = lines[:1]
	}
	t0 := time.Now()
	p, err := pmuoutage.TrainModelPatchContext(ctx, r.model, pmuoutage.PatchSpec{Lines: lines, Seed: r.seed*31 + int64(c)})
	if err != nil {
		return err
	}
	path, err := writePatch(r.dir, c, p)
	if err != nil {
		return err
	}
	results, err := reload(ctx, hc, r.st.front(), r.st.router != nil, path)
	if err != nil {
		return err
	}
	r.times = append(r.times, time.Since(t0).Seconds())
	if len(results) != len(r.st.backends) {
		return fmt.Errorf("cycle %d: %d reload results for %d backends", c, len(results), len(r.st.backends))
	}
	for i, res := range results {
		if res.Generation <= r.gens[i] {
			return fmt.Errorf("cycle %d: backend %d generation %d did not advance past %d", c, i, res.Generation, r.gens[i])
		}
		r.gens[i] = res.Generation
		if res.Model != p.ResultFingerprint() {
			return fmt.Errorf("cycle %d: backend %d serves %s, patch result is %s", c, i, res.Model, p.ResultFingerprint())
		}
	}
	r.model, err = p.Apply(r.model)
	return err
}

func writePatch(dir string, c int, p *pmuoutage.Patch) (string, error) {
	path, err := filepath.Abs(filepath.Join(dir, fmt.Sprintf("patch-%d.json", c)))
	if err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	if err := p.Encode(bw); err != nil {
		_ = f.Close()
		return "", err
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}
