package cascade

import (
	"math"
	"testing"

	"pmuoutage/internal/cases"
	"pmuoutage/internal/grid"
)

func TestDeriveRatings(t *testing.T) {
	g := cases.IEEE14()
	r, err := Derive(g, 1.5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != g.E() {
		t.Fatalf("ratings = %d, want %d", len(r), g.E())
	}
	flows, err := Flows(g)
	if err != nil {
		t.Fatal(err)
	}
	for e := range r {
		if r[e] < math.Abs(flows[e]) {
			t.Fatalf("line %d rated below base flow", e)
		}
		if r[e] < 0.1 {
			t.Fatalf("line %d rating %v below floor", e, r[e])
		}
	}
	if _, err := Derive(g, 0.9, 0); err == nil {
		t.Fatal("expected margin validation error")
	}
}

func TestFlowsConservation(t *testing.T) {
	// DC flow balance: at every non-slack bus, net flow equals injection.
	g := cases.IEEE14()
	flows, err := Flows(g)
	if err != nil {
		t.Fatal(err)
	}
	slack, _ := g.SlackIndex()
	for i := 0; i < g.N(); i++ {
		if i == slack {
			continue
		}
		var net float64
		for e := range g.Branches {
			br := &g.Branches[e]
			switch i {
			case br.From:
				net -= flows[e]
			case br.To:
				net += flows[e]
			}
		}
		inj := g.Buses[i].Pg - g.Buses[i].Pd
		if math.Abs(net+inj) > 1e-9 {
			t.Fatalf("bus %d: flow imbalance %v vs injection %v", i, net, inj)
		}
	}
}

func TestNoCascadeWithGenerousRatings(t *testing.T) {
	// With a huge margin, a single outage must not propagate.
	g := cases.IEEE14()
	r, err := Derive(g, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, r, []grid.Line{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Depth() != 0 {
		t.Fatalf("cascade depth %d with 10x margins", res.Depth())
	}
	if len(res.Failed) != 1 {
		t.Fatalf("failed lines = %v, want only the trigger", res.Failed)
	}
	if res.ServedFraction < 0.999 {
		t.Fatalf("served fraction %v, want ~1", res.ServedFraction)
	}
}

func TestTightRatingsCascade(t *testing.T) {
	// With margins barely above base flow, tripping the most loaded line
	// must trigger further failures.
	g := cases.IEEE14()
	r, err := Derive(g, 1.05, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	flows, _ := Flows(g)
	worst := grid.Line(0)
	for e := 1; e < g.E(); e++ {
		if math.Abs(flows[e]) > math.Abs(flows[worst]) {
			worst = grid.Line(e)
		}
	}
	res, err := Run(g, r, []grid.Line{worst}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Depth() == 0 {
		t.Fatal("expected propagation with 5% margins")
	}
	if len(res.Failed) < 2 {
		t.Fatalf("failed = %v, want secondary trips", res.Failed)
	}
	if res.ServedFraction >= 1 {
		t.Fatalf("served fraction %v after cascade", res.ServedFraction)
	}
	// Monotone decreasing served fraction across steps.
	prev := 1.0
	for _, s := range res.Steps {
		if s.Served > prev+1e-12 {
			t.Fatalf("served fraction increased at round %d", s.Round)
		}
		prev = s.Served
	}
}

func TestInterventionHaltsCascade(t *testing.T) {
	g := cases.IEEE14()
	r, err := Derive(g, 1.05, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	flows, _ := Flows(g)
	worst := grid.Line(0)
	for e := 1; e < g.E(); e++ {
		if math.Abs(flows[e]) > math.Abs(flows[worst]) {
			worst = grid.Line(e)
		}
	}
	free, err := Run(g, r, []grid.Line{worst}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stopped, err := Run(g, r, []grid.Line{worst}, Options{
		Intervene: ShedLoad(0.3, r),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stopped.Halted {
		t.Fatal("30% load shedding should halt the cascade")
	}
	if len(stopped.Failed) > len(free.Failed) {
		t.Fatalf("intervention lost more lines (%d) than no action (%d)",
			len(stopped.Failed), len(free.Failed))
	}
}

func TestRunValidation(t *testing.T) {
	g := cases.IEEE14()
	r, _ := Derive(g, 2, 0.1)
	if _, err := Run(g, r, nil, Options{}); err != ErrNoTrigger {
		t.Fatalf("err = %v, want ErrNoTrigger", err)
	}
	if _, err := Run(g, r[:3], []grid.Line{0}, Options{}); err == nil {
		t.Fatal("expected ratings length error")
	}
	if _, err := Run(g, r, []grid.Line{999}, Options{}); err == nil {
		t.Fatal("expected trigger range error")
	}
}

func TestRunDoesNotMutateInput(t *testing.T) {
	g := cases.IEEE14()
	r, _ := Derive(g, 1.05, 0.01)
	before := g.Clone()
	if _, err := Run(g, r, []grid.Line{0}, Options{}); err != nil {
		t.Fatal(err)
	}
	for e := range g.Branches {
		if g.Branches[e] != before.Branches[e] {
			t.Fatal("Run mutated the input grid branches")
		}
	}
	for i := range g.Buses {
		if g.Buses[i] != before.Buses[i] {
			t.Fatal("Run mutated the input grid buses")
		}
	}
}

func TestIslandingShedsLoad(t *testing.T) {
	// Removing both feeders of the radial bus 8 region (lines 7-8) in
	// IEEE-14 islands bus 8; its (zero) load plus any generation must be
	// handled without error, and flows must stay computable.
	g := cases.IEEE14()
	r, _ := Derive(g, 5, 0.5)
	e := g.FindLine(6, 7) // the only line of bus 8 (0-based 7)
	if e < 0 {
		t.Fatal("line 7-8 not found")
	}
	res, err := Run(g, r, []grid.Line{e}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Bus 8 carries no load in IEEE-14, so served fraction stays ~1.
	if res.ServedFraction < 0.999 {
		t.Fatalf("served = %v, want ~1 (islanded bus has no load)", res.ServedFraction)
	}
}

func TestOverloadMarginHelper(t *testing.T) {
	g := cases.IEEE14()
	r, _ := Derive(g, 2, 0.1)
	m, err := overloadMargin(g, r)
	if err != nil {
		t.Fatal(err)
	}
	if m <= 0 || m > 0.51 {
		t.Fatalf("base-case worst margin = %v, want <= 1/2 with 2x ratings", m)
	}
}
