// Package cascade simulates the cascading-failure process that motivates
// the paper (§I, refs [2], [3]): an undetected line outage redistributes
// power flows, overloaded neighbours trip, and the grid can unravel
// island by island. The simulator uses DC power flow for redistribution
// (the standard model in the cascading-failure literature) and supports
// an intervention hook so experiments can quantify what timely outage
// detection buys: shedding load early stops the propagation.
package cascade

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"pmuoutage/internal/grid"
	"pmuoutage/internal/mat"
	"pmuoutage/internal/powerflow"
)

// Ratings holds per-line thermal limits in per-unit flow. The paper's
// test cases do not ship usable ratings, so Derive builds the standard
// synthetic ones: base-case flow times an overload margin, floored so
// lightly-loaded lines are not hair-triggers.
type Ratings []float64

// Derive computes ratings from the grid's base-case DC flows:
// rating_e = max(|flow_e| * margin, floor). A margin of 1.5–2 matches
// the N-1 planning practice assumed in cascading-failure studies.
func Derive(g *grid.Grid, margin, floor float64) (Ratings, error) {
	if margin <= 1 {
		return nil, fmt.Errorf("cascade: margin %v must exceed 1", margin)
	}
	if floor <= 0 {
		floor = 0.1
	}
	flows, err := Flows(g)
	if err != nil {
		return nil, err
	}
	r := make(Ratings, g.E())
	for e := range r {
		r[e] = math.Max(math.Abs(flows[e])*margin, floor)
	}
	return r, nil
}

// Flows returns the DC active-power flow on every branch (from→to
// positive), with zero for out-of-service branches. Mid-cascade grids
// can be islanded: flows are computed on the slack bus's component
// (de-energised islands carry no flow), so the function keeps working
// as the grid fragments.
func Flows(g *grid.Grid) ([]float64, error) {
	slack, err := g.SlackIndex()
	if err != nil {
		return nil, err
	}
	reach := reachable(g, slack)
	// Index map for the energised component, excluding the slack.
	idx := make([]int, 0, g.N())
	pos := make([]int, g.N())
	for i := range pos {
		pos[i] = -1
	}
	for i := 0; i < g.N(); i++ {
		if reach[i] && i != slack {
			pos[i] = len(idx)
			idx = append(idx, i)
		}
	}
	theta := make([]float64, g.N())
	if len(idx) > 0 {
		// Reduced Laplacian over the component.
		b := mat.NewDense(len(idx), len(idx))
		p := make([]float64, len(idx))
		for e := range g.Branches {
			br := &g.Branches[e]
			if !br.Status || br.X == 0 || !reach[br.From] { //gridlint:ignore floatcmp X==0 marks an unmodelled branch sentinel, never a computed reactance
				continue
			}
			w := 1 / br.X
			f, t := pos[br.From], pos[br.To]
			if f >= 0 {
				b.Add(f, f, w)
			}
			if t >= 0 {
				b.Add(t, t, w)
			}
			if f >= 0 && t >= 0 {
				b.Add(f, t, -w)
				b.Add(t, f, -w)
			}
		}
		for k, i := range idx {
			p[k] = g.Buses[i].Pg - g.Buses[i].Pd
		}
		sol, err := mat.Solve(b, p)
		if err != nil {
			return nil, fmt.Errorf("cascade: DC solve on energised component: %w", err)
		}
		for k, i := range idx {
			theta[i] = sol[k]
		}
	}
	out := make([]float64, g.E())
	for e := range g.Branches {
		br := &g.Branches[e]
		if !br.Status || br.X == 0 || !reach[br.From] || !reach[br.To] { //gridlint:ignore floatcmp X==0 marks an unmodelled branch sentinel, never a computed reactance
			continue
		}
		out[e] = (theta[br.From] - theta[br.To]) / br.X
	}
	return out, nil
}

// Step is one round of the cascade.
type Step struct {
	Round   int
	Tripped []grid.Line // lines that exceeded their rating this round
	Islands int         // connected components after the trips
	Served  float64     // fraction of initial load still served
}

// Result is a full cascade trajectory.
type Result struct {
	Steps []Step
	// Failed is every line lost after the initiating outage(s).
	Failed []grid.Line
	// ServedFraction is the final fraction of the initial load served.
	ServedFraction float64
	// Halted reports whether an intervention stopped the cascade.
	Halted bool
}

// Depth returns the number of propagation rounds after the trigger.
func (r *Result) Depth() int { return len(r.Steps) }

// Intervention is called after each round with the current round number
// and the grid state; returning true halts the cascade (modelling an
// operator action taken once the outage is detected and localised, e.g.
// targeted load shedding).
type Intervention func(round int, g *grid.Grid) bool

// Options configures a cascade run.
type Options struct {
	// MaxRounds caps the propagation (default 50).
	MaxRounds int
	// Intervene, when non-nil, can stop the cascade after a round.
	Intervene Intervention
	// LoadSheddingOnIslanding: when a component loses its slack (and so
	// its reference generation), its load counts as unserved. Always on;
	// this flag name documents the behaviour for API readers.
	LoadSheddingOnIslanding bool
}

// ErrNoTrigger is returned when the initiating set is empty.
var ErrNoTrigger = errors.New("cascade: empty trigger set")

// Run simulates a cascade on a copy of g triggered by the outage of the
// given lines, with per-line ratings (see Derive).
func Run(g *grid.Grid, ratings Ratings, trigger []grid.Line, opts Options) (*Result, error) {
	if len(trigger) == 0 {
		return nil, ErrNoTrigger
	}
	if len(ratings) != g.E() {
		return nil, fmt.Errorf("cascade: %d ratings for %d lines", len(ratings), g.E())
	}
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 50
	}
	work := g.Clone()
	initialLoad := work.TotalLoad()
	if initialLoad <= 0 {
		return nil, fmt.Errorf("cascade: grid has no load")
	}
	res := &Result{}
	for _, e := range trigger {
		if int(e) < 0 || int(e) >= work.E() {
			return nil, fmt.Errorf("cascade: trigger line %d out of range %d", e, work.E())
		}
		work.Branches[e].Status = false
		res.Failed = append(res.Failed, e)
	}

	for round := 1; round <= opts.MaxRounds; round++ {
		served := shedIslands(work)
		flows, err := Flows(work)
		if err != nil {
			// A singular DC solve means the surviving system collapsed.
			res.ServedFraction = 0
			return res, nil
		}
		var tripped []grid.Line
		for e := range work.Branches {
			if !work.Branches[e].Status {
				continue
			}
			if math.Abs(flows[e]) > ratings[e] {
				tripped = append(tripped, grid.Line(e))
			}
		}
		servedFrac := served / initialLoad
		if len(tripped) == 0 {
			res.ServedFraction = servedFrac
			return res, nil
		}
		sort.Slice(tripped, func(a, b int) bool { return tripped[a] < tripped[b] })
		for _, e := range tripped {
			work.Branches[e].Status = false
		}
		res.Failed = append(res.Failed, tripped...)
		res.Steps = append(res.Steps, Step{
			Round: round, Tripped: tripped,
			Islands: countIslands(work), Served: servedFrac,
		})
		if opts.Intervene != nil && opts.Intervene(round, work) {
			res.Halted = true
			res.ServedFraction = shedIslands(work) / initialLoad
			return res, nil
		}
	}
	res.ServedFraction = shedIslands(work) / initialLoad
	return res, nil
}

// shedIslands disconnects load in components without the slack bus
// (they have lost their reference generation) and rebalances generation
// in the surviving component. It returns the served load in p.u.
func shedIslands(g *grid.Grid) float64 {
	slack, err := g.SlackIndex()
	if err != nil {
		return 0
	}
	reach := reachable(g, slack)
	var served float64
	for i := range g.Buses {
		if reach[i] {
			served += g.Buses[i].Pd
		} else {
			// Dead island: its load is unserved and its generation off.
			g.Buses[i].Pd = 0
			g.Buses[i].Qd = 0
			g.Buses[i].Pg = 0
		}
	}
	// Rebalance generation to the surviving load (lossless DC).
	*g = *powerflow.Dispatch(g, 0)
	return served
}

func reachable(g *grid.Grid, src int) []bool {
	n := g.N()
	seen := make([]bool, n)
	seen[src] = true
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return seen
}

func countIslands(g *grid.Grid) int {
	n := g.N()
	seen := make([]bool, n)
	count := 0
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		count++
		queue := []int{s}
		seen[s] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Neighbors(u) {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	return count
}

// ShedLoad returns an Intervention that sheds the given fraction of
// every remaining load after the trigger round — the canonical operator
// action once an outage is detected and localised. It halts the cascade
// once no line is overloaded anymore.
func ShedLoad(frac float64, ratings Ratings) Intervention {
	return func(_ int, g *grid.Grid) bool {
		for i := range g.Buses {
			g.Buses[i].Pd *= 1 - frac
			g.Buses[i].Qd *= 1 - frac
		}
		*g = *powerflow.Dispatch(g, 0)
		flows, err := Flows(g)
		if err != nil {
			return false
		}
		for e := range g.Branches {
			if g.Branches[e].Status && math.Abs(flows[e]) > ratings[e] {
				return false // still overloaded: cascade continues
			}
		}
		return true
	}
}

// overloadMargin is exposed for tests: the worst ratio of |flow| to
// rating over in-service lines (1.0 means at the limit).
func overloadMargin(g *grid.Grid, ratings Ratings) (float64, error) {
	flows, err := Flows(g)
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for e := range g.Branches {
		if !g.Branches[e].Status || ratings[e] == 0 { //gridlint:ignore floatcmp zero rating is the unrated-branch sentinel from the case file
			continue
		}
		if r := math.Abs(flows[e]) / ratings[e]; r > worst {
			worst = r
		}
	}
	return worst, nil
}
