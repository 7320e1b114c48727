package comm

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pmuoutage/internal/dataset"
	"pmuoutage/internal/obs"
	"pmuoutage/internal/pmunet"
)

// Metric names the collector exports when registered on an
// obs.Registry — package-level snake_case consts, one registration
// site each (enforced by the gridlint metricname analyzer).
const (
	metricEmitted     = "pmu_collector_emitted_total"
	metricIncomplete  = "pmu_collector_incomplete_total"
	metricDropped     = "pmu_collector_dropped_total"
	metricEvicted     = "pmu_collector_evicted_total"
	metricLate        = "pmu_collector_late_total"
	metricPending     = "pmu_collector_pending"
	metricPDCDeadline = "pmu_pdc_deadline_seconds"

	labelPDC = "pdc"
)

// Assembled is one control-center sample: the merged measurements of a
// time step with a missing-data mask for buses that never arrived.
type Assembled struct {
	Seq    int
	Sample dataset.Sample
}

// Adaptive-deadline tuning. Each PDC's assembly latency — how long
// after a time step opens its cluster frame lands — is tracked as an
// EWMA; the emission deadline in force is the worst PDC's EWMA scaled
// by deadlineFactor, clamped into [maxDeadline/8, maxDeadline]. Fast
// fleets emit stragglers in a few milliseconds instead of waiting out
// the configured worst case; a slow or flapping PDC stretches the
// deadline back toward it.
const (
	ewmaAlpha      = 0.25
	deadlineFactor = 2.0
)

// emitWindow bounds the emitted-sequence guard: frames for a sequence
// emitted within the last emitWindow emissions are dropped as late
// instead of resurrecting the assembly (and double-reporting the time
// step). Older sequences than that fall out of the window — devices
// reusing a sequence number after 4× the pending bound are treated as
// a new epoch.
const emitWindow = 4 * maxPending

// pdcEstimator tracks one PDC's EWMA assembly latency in seconds,
// stored as float64 bits so metric gauges read it lock-free.
type pdcEstimator struct{ bits atomic.Uint64 }

func (e *pdcEstimator) observe(lat time.Duration) {
	s := lat.Seconds()
	if s <= 0 {
		s = 0
	}
	for {
		old := e.bits.Load()
		next := s
		if old != 0 {
			next = (1-ewmaAlpha)*math.Float64frombits(old) + ewmaAlpha*s
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

func (e *pdcEstimator) ewma() float64 { return math.Float64frombits(e.bits.Load()) }

// deadlineFor clamps an estimator-driven deadline into [lo, hi]; a PDC
// with no latency history gets the configured maximum.
func deadlineFor(ewmaSeconds float64, lo, hi time.Duration) time.Duration {
	if ewmaSeconds <= 0 {
		return hi
	}
	d := time.Duration(deadlineFactor * ewmaSeconds * float64(time.Second))
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// Collector is the control-center endpoint: it accepts PDC connections,
// merges cluster frames per sequence number, and emits assembled samples
// once complete or past the adaptive deadline — late or lost data become
// missing entries rather than blocking the application, matching the
// paper's online-detection requirement. Emissions go to the Samples
// channel, or straight into a consumer attached with SetSink (the
// device→detector stream the service layer uses).
type Collector struct {
	n           int
	maxDeadline time.Duration
	minDeadline time.Duration
	out         chan Assembled
	wake        chan struct{}

	// sink, when set, replaces the Samples channel. deliverMu
	// serializes deliveries across the PDC readers and the deadline
	// loop (see deliver).
	sink      atomic.Pointer[func(Assembled)]
	deliverMu sync.Mutex

	ln net.Listener

	// Emission counters: always-on lock-free cells, shared verbatim with
	// any registry the collector is Registered on, so CollectorStats and
	// /metrics can never disagree.
	emitted, incomplete, droppedFull, evicted, late obs.Counter

	logger *slog.Logger // nil disables network-event logs

	mu          sync.Mutex
	reg         *obs.Registry // set by Register; gates per-PDC gauge export
	conns       map[net.Conn]struct{}
	pending     map[int]*assembly
	pdcLat      map[int]*pdcEstimator
	emittedSeqs map[int]struct{}
	emitRing    []int
	emitPos     int
	emitCount   int
	closed      bool
	done        chan struct{}
	wg          sync.WaitGroup
}

// CollectorStats counts the collector's emission outcomes — the
// observability hook the serving layer's dashboards read alongside the
// detection service's shard counters.
type CollectorStats struct {
	// Emitted counts samples delivered (on Samples or into the sink),
	// complete or not.
	Emitted uint64
	// Incomplete counts emitted samples that carried missing entries.
	Incomplete uint64
	// DroppedFull counts samples discarded because the consumer stalled
	// and the output channel was full.
	DroppedFull uint64
	// Evicted counts assemblies force-emitted early by the maxPending
	// memory bound (a subset of Emitted or DroppedFull).
	Evicted uint64
	// Late counts cluster frames that arrived after their sequence was
	// already emitted and were dropped instead of re-reporting it.
	Late uint64
	// Pending is the number of partially assembled time steps held now.
	Pending int
}

// Stats snapshots the collector's counters.
func (c *Collector) Stats() CollectorStats {
	pending := c.pendingNow()
	return CollectorStats{
		Emitted:     c.emitted.Load(),
		Incomplete:  c.incomplete.Load(),
		DroppedFull: c.droppedFull.Load(),
		Evicted:     c.evicted.Load(),
		Late:        c.late.Load(),
		Pending:     pending,
	}
}

// Register exports the collector's counters on r, next to whatever else
// the process serves at /metrics. The registry attaches to the
// collector's own cells — Stats and the exposition read the same
// atomics. Per-PDC deadline gauges appear as PDCs are first heard from.
// Call at most once per registry.
func (c *Collector) Register(r *obs.Registry) {
	r.AttachCounter(metricEmitted, "assembled samples delivered, complete or not", &c.emitted)
	r.AttachCounter(metricIncomplete, "emitted samples that carried missing entries", &c.incomplete)
	r.AttachCounter(metricDropped, "samples discarded because the consumer stalled", &c.droppedFull)
	r.AttachCounter(metricEvicted, "assemblies force-emitted by the memory bound", &c.evicted)
	r.AttachCounter(metricLate, "frames for already-emitted sequences, dropped", &c.late)
	r.GaugeFunc(metricPending, "partially assembled time steps held now", func() float64 {
		return float64(c.pendingNow())
	})
	// Gauges for PDCs heard from before Register; registered with no
	// collector lock held — the registry calls gauge closures during
	// exposition while holding its own mutex, so registering under c.mu
	// would invert that order.
	for id, e := range c.adoptRegistry(r) {
		c.registerPDCGauge(r, id, e)
	}
}

// adoptRegistry records the registry for later-arriving PDCs and
// snapshots the estimators already heard from.
func (c *Collector) adoptRegistry(r *obs.Registry) map[int]*pdcEstimator {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg = r
	ests := make(map[int]*pdcEstimator, len(c.pdcLat))
	for id, e := range c.pdcLat {
		ests[id] = e
	}
	return ests
}

// registerPDCGauge exports one PDC's adaptive deadline. The closure
// reads only the estimator's atomic cell — safe under the registry's
// exposition lock.
func (c *Collector) registerPDCGauge(r *obs.Registry, pdc int, e *pdcEstimator) {
	lo, hi := c.minDeadline, c.maxDeadline
	r.GaugeFunc(metricPDCDeadline, "adaptive per-PDC emission deadline", func() float64 {
		return deadlineFor(e.ewma(), lo, hi).Seconds()
	}, labelPDC, strconv.Itoa(pdc))
}

// pendingNow reads the size of the in-flight assembly table.
func (c *Collector) pendingNow() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// AdaptiveDeadline reports the emission deadline currently in force:
// the worst per-PDC EWMA latency scaled by deadlineFactor, clamped into
// [maxDeadline/8, maxDeadline]. With no latency history it equals the
// configured deadline.
func (c *Collector) AdaptiveDeadline() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.adaptiveLocked()
}

func (c *Collector) adaptiveLocked() time.Duration {
	worst := 0.0
	for _, e := range c.pdcLat {
		if v := e.ewma(); v > worst {
			worst = v
		}
	}
	return deadlineFor(worst, c.minDeadline, c.maxDeadline)
}

// SetLogger attaches a structured logger for network events (evictions,
// drops, incomplete emissions). Call before traffic flows; nil (the
// default) disables logging.
func (c *Collector) SetLogger(lg *slog.Logger) {
	if lg != nil {
		lg = lg.With(slog.String(obs.AttrComponent, "comm"))
	}
	c.logger = lg
}

// SetSink routes assembled samples to fn instead of the Samples
// channel — the typed emission stream a consumer such as the detection
// service's StreamIngest attaches to. Set it before PDC traffic flows.
// fn is invoked one sample at a time (never concurrently) and must not
// block: the network readers and the deadline loop wait on it.
func (c *Collector) SetSink(fn func(Assembled)) {
	if fn == nil {
		c.sink.Store(nil)
		return
	}
	c.sink.Store(&fn)
}

type assembly struct {
	vm, va  []float64
	have    pmunet.Mask // true = received
	got     int         // buses received so far; == n means complete
	started time.Time
}

// emission is a retired assembly on its way out of the lock: built
// under c.mu (where it leaves the pending table and joins the emitted
// window), delivered after release so a slow consumer can never stall
// the network path.
type emission struct {
	seq    int
	sample dataset.Sample
}

// maxPending bounds the number of partially-assembled time steps the
// collector holds. A PDC that keeps opening new sequence numbers without
// ever completing them (clock skew, replay, a stuck upstream) would
// otherwise grow the pending map without limit faster than the deadline
// sweep can drain it. At the bound, the stalest assembly is force-emitted
// with its gaps as missing data — the same treatment the deadline gives
// stragglers, applied early under memory pressure.
const maxPending = 256

// NewCollector starts the control-center server for an n-bus grid on
// listenAddr ("127.0.0.1:0" for ephemeral). deadline is the longest a
// time step waits for stragglers before being emitted with missing
// entries (default 100ms); once PDC latencies have been observed the
// effective deadline adapts below it (see AdaptiveDeadline). Assembled
// samples arrive on Samples(), or in the SetSink callback.
func NewCollector(n int, listenAddr string, deadline time.Duration) (*Collector, error) {
	if n <= 0 {
		return nil, fmt.Errorf("comm: collector needs positive bus count, got %d", n)
	}
	if deadline <= 0 {
		deadline = 100 * time.Millisecond
	}
	minDeadline := deadline / 8
	if minDeadline < time.Millisecond {
		minDeadline = time.Millisecond
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("comm: collector listen: %w", err)
	}
	c := &Collector{
		n:           n,
		maxDeadline: deadline,
		minDeadline: minDeadline,
		out:         make(chan Assembled, 64),
		wake:        make(chan struct{}, 1),
		ln:          ln,
		conns:       map[net.Conn]struct{}{},
		pending:     map[int]*assembly{},
		pdcLat:      map[int]*pdcEstimator{},
		emittedSeqs: make(map[int]struct{}, emitWindow),
		emitRing:    make([]int, emitWindow),
		done:        make(chan struct{}),
	}
	c.wg.Add(2)
	//gridlint:ignore ctxflow server lifetime is bound by Close, not a per-call context
	go c.acceptLoop()
	go c.deadlineLoop()
	return c, nil
}

// Addr returns the address PDCs should dial.
func (c *Collector) Addr() string { return c.ln.Addr().String() }

// Samples returns the stream of assembled samples. The channel closes
// when the collector is closed. Unused when a sink is attached.
func (c *Collector) Samples() <-chan Assembled { return c.out }

func (c *Collector) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		if !c.track(conn) {
			_ = conn.Close() // accept raced with Close
			continue
		}
		c.wg.Add(1)
		go c.readPDC(conn)
	}
}

// track registers an accepted connection so Close can unblock its
// reader; it refuses connections that race with shutdown.
func (c *Collector) track(conn net.Conn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	c.conns[conn] = struct{}{}
	return true
}

func (c *Collector) untrack(conn net.Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.conns, conn)
}

func (c *Collector) readPDC(conn net.Conn) {
	defer c.wg.Done()
	defer c.untrack(conn)
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		var cf ClusterFrame
		if err := json.Unmarshal(sc.Bytes(), &cf); err != nil {
			continue
		}
		c.ingest(cf)
	}
}

func (c *Collector) ingest(cf ClusterFrame) {
	ems, reg, est := c.ingestLocked(cf, time.Now())
	for _, em := range ems {
		c.deliver(em)
	}
	if reg != nil {
		// First frame from this PDC: export its deadline gauge, outside
		// c.mu for the same lock-order reason as in Register.
		c.registerPDCGauge(reg, cf.PDC, est)
	}
}

// ingestLocked merges one cluster frame under the lock and hands back
// whatever emissions it triggered (an eviction, a completed step) for
// out-of-lock delivery.
func (c *Collector) ingestLocked(cf ClusterFrame, now time.Time) (ems []emission, reg *obs.Registry, est *pdcEstimator) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, nil, nil
	}
	if _, dup := c.emittedSeqs[cf.Seq]; dup {
		// The sequence was already emitted (deadline or eviction);
		// re-opening it would report the same time step twice.
		c.late.Inc()
		if lg := c.logger; lg != nil && lg.Enabled(context.Background(), slog.LevelDebug) {
			lg.LogAttrs(context.Background(), slog.LevelDebug, "late frame for emitted sequence dropped",
				slog.Int("seq", cf.Seq), slog.Int("pdc", cf.PDC))
		}
		return nil, nil, nil
	}
	e := c.pdcLat[cf.PDC]
	if e == nil {
		e = &pdcEstimator{}
		c.pdcLat[cf.PDC] = e
		reg, est = c.reg, e
	}
	a := c.pending[cf.Seq]
	if a == nil {
		if len(c.pending) >= maxPending {
			if em, ok := c.evictStalestLocked(); ok {
				ems = append(ems, em)
			}
		}
		a = &assembly{
			vm:      make([]float64, c.n),
			va:      make([]float64, c.n),
			have:    make(pmunet.Mask, c.n),
			started: now,
		}
		c.pending[cf.Seq] = a
		c.nudge()
	} else {
		// Latency relative to the step's first arrival feeds this PDC's
		// deadline estimate.
		e.observe(now.Sub(a.started))
	}
	for i, bus := range cf.Buses {
		if bus < 0 || bus >= c.n || i >= len(cf.Vm) || i >= len(cf.Va) {
			continue // malformed aggregate entry
		}
		a.vm[bus] = cf.Vm[i]
		a.va[bus] = cf.Va[i]
		if !a.have[bus] {
			a.have[bus] = true
			a.got++
		}
	}
	// Complete time steps are emitted immediately — no waiting when all
	// data arrived. (have is inverse-sense relative to Mask — true means
	// received — so count arrivals instead of calling MissingCount, whose
	// reading of this mask would be backwards.)
	if a.got == c.n {
		ems = append(ems, c.removeLocked(cf.Seq, a))
	}
	return ems, reg, est
}

// nudge wakes the deadline loop so a newly opened assembly is covered
// by a timer wake-up at its adaptive expiry; callers hold c.mu.
func (c *Collector) nudge() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// evictStalestLocked retires the oldest pending assembly to make room
// for a new sequence; callers hold c.mu.
func (c *Collector) evictStalestLocked() (emission, bool) {
	stalest := -1
	var oldest time.Time
	for seq, a := range c.pending {
		if stalest < 0 || a.started.Before(oldest) {
			stalest, oldest = seq, a.started
		}
	}
	if stalest < 0 {
		return emission{}, false
	}
	c.evicted.Inc()
	if lg := c.logger; lg != nil {
		lg.LogAttrs(context.Background(), slog.LevelWarn, "assembly evicted under memory pressure",
			slog.Int("seq", stalest), slog.Int("pending", len(c.pending)))
	}
	return c.removeLocked(stalest, c.pending[stalest]), true
}

// removeLocked retires an assembly: it leaves the pending table and
// joins the emitted-sequence window — so stragglers are dropped as late
// even while its delivery is still in flight — and becomes an emission
// for delivery once the lock is released. Callers hold c.mu.
func (c *Collector) removeLocked(seq int, a *assembly) emission {
	delete(c.pending, seq)
	c.markEmittedLocked(seq)
	missing := make(pmunet.Mask, c.n)
	for i, got := range a.have {
		missing[i] = !got
	}
	s := dataset.Sample{Vm: a.vm, Va: a.va}
	if missing.AnyMissing() {
		s.Mask = missing
	}
	return emission{seq: seq, sample: s}
}

// markEmittedLocked records seq in the bounded emitted window, aging
// out the oldest entry once emitWindow sequences have passed.
func (c *Collector) markEmittedLocked(seq int) {
	if c.emitCount >= emitWindow {
		delete(c.emittedSeqs, c.emitRing[c.emitPos])
	}
	c.emitRing[c.emitPos] = seq
	c.emittedSeqs[seq] = struct{}{}
	c.emitPos = (c.emitPos + 1) % emitWindow
	c.emitCount++
}

// deliver hands one emission to the consumer with no collector lock
// held, so a slow sink or a full channel can never stall the network
// path. Deliveries are serialized: the sink sees one sample at a time,
// and since only deliver sends on c.out, room seen in the channel is
// still there at the send. That lets the counters move before the
// handoff, so a consumer reading Stats after it receives a sample
// always finds it counted. Delivery happens before the triggering call
// (ingest, Flush, Close) returns.
func (c *Collector) deliver(em emission) {
	asm := Assembled{Seq: em.seq, Sample: em.sample}
	c.deliverMu.Lock()
	defer c.deliverMu.Unlock()
	if p := c.sink.Load(); p != nil {
		c.noteEmitted(em)
		(*p)(asm)
		return
	}
	if len(c.out) == cap(c.out) {
		// A stalled consumer must not deadlock the network path; the
		// sample is dropped like any other late data.
		c.droppedFull.Inc()
		if lg := c.logger; lg != nil {
			lg.LogAttrs(context.Background(), slog.LevelWarn, "sample dropped: consumer stalled",
				slog.Int("seq", em.seq))
		}
		return
	}
	c.noteEmitted(em)
	c.out <- asm
}

func (c *Collector) noteEmitted(em emission) {
	c.emitted.Inc()
	if em.sample.Mask != nil {
		c.incomplete.Inc()
		if lg := c.logger; lg != nil && lg.Enabled(context.Background(), slog.LevelDebug) {
			lg.LogAttrs(context.Background(), slog.LevelDebug, "incomplete sample emitted",
				slog.Int("seq", em.seq), slog.Int("missing", em.sample.Mask.MissingCount()))
		}
	}
}

// deadlineLoop emits assemblies past the adaptive deadline. A timer —
// not a fixed tick — wakes at the earliest pending expiry, and
// new-assembly creation nudges it so a shortened deadline takes effect
// immediately rather than on the next quarter-deadline tick.
func (c *Collector) deadlineLoop() {
	defer c.wg.Done()
	timer := time.NewTimer(c.maxDeadline / 4)
	defer timer.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-c.wake:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		case <-timer.C:
		}
		ems, wait := c.takeExpired(time.Now())
		for _, em := range ems {
			c.deliver(em)
		}
		timer.Reset(wait)
	}
}

// takeExpired retires every assembly past the adaptive deadline and
// returns how long the loop may sleep before the next pending one
// expires.
func (c *Collector) takeExpired(now time.Time) ([]emission, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	wait := c.maxDeadline / 4
	if c.closed {
		return nil, wait
	}
	d := c.adaptiveLocked()
	var ems []emission
	for seq, a := range c.pending {
		age := now.Sub(a.started)
		if age >= d {
			ems = append(ems, c.removeLocked(seq, a))
		} else if left := d - age; left < wait {
			wait = left
		}
	}
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return ems, wait
}

// Flush force-emits every pending assembly (used at shutdown and by
// tests to avoid waiting for deadlines). Delivery completes before
// Flush returns. Do not race Flush with Close.
func (c *Collector) Flush() {
	for _, em := range c.takeAll() {
		c.deliver(em)
	}
}

// takeAll retires every pending assembly under the lock.
func (c *Collector) takeAll() []emission {
	c.mu.Lock()
	defer c.mu.Unlock()
	ems := make([]emission, 0, len(c.pending))
	for seq, a := range c.pending {
		ems = append(ems, c.removeLocked(seq, a))
	}
	return ems
}

// Close flushes, stops the server, and closes the Samples channel. It is
// idempotent, and it closes accepted PDC connections so reader
// goroutines parked in Scan cannot deadlock the final Wait.
func (c *Collector) Close() error {
	ems, conns, ok := c.shutdown()
	if !ok {
		return nil // already closed
	}
	for _, em := range ems {
		c.deliver(em)
	}
	err := c.ln.Close()
	for _, conn := range conns {
		_ = conn.Close() // unblocks the conn's readPDC goroutine
	}
	c.wg.Wait()
	close(c.out)
	return err
}

// shutdown retires the pending assemblies, marks the collector closed,
// and hands back the tracked connections; it reports false if Close
// already ran.
func (c *Collector) shutdown() ([]emission, []net.Conn, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, nil, false
	}
	ems := make([]emission, 0, len(c.pending))
	for seq, a := range c.pending {
		ems = append(ems, c.removeLocked(seq, a))
	}
	c.closed = true
	close(c.done)
	conns := make([]net.Conn, 0, len(c.conns))
	for conn := range c.conns {
		conns = append(conns, conn)
	}
	return ems, conns, true
}
