package dataset

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"pmuoutage/internal/cases"
	"pmuoutage/internal/grid"
	"pmuoutage/internal/pmunet"
)

func smallConfig() GenConfig {
	return GenConfig{Steps: 6, Seed: 1}
}

func TestChannelStringAndDim(t *testing.T) {
	if Magnitude.String() != "magnitude" || Angle.String() != "angle" || Stacked.String() != "stacked" {
		t.Fatal("channel names wrong")
	}
	if Magnitude.Dim(14) != 14 || Stacked.Dim(14) != 28 {
		t.Fatal("channel dims wrong")
	}
	if Channel(9).String() == "" {
		t.Fatal("unknown channel must format")
	}
}

func TestSampleVectorAndMask(t *testing.T) {
	s := Sample{Vm: []float64{1, 1.02}, Va: []float64{0, -0.1}}
	if !s.Complete() || s.Missing(0) {
		t.Fatal("unmasked sample must be complete")
	}
	v := s.Vector(Stacked)
	if len(v) != 4 || v[0] != 1 || v[3] != -0.1 {
		t.Fatalf("stacked vector = %v", v)
	}
	// Vector returns copies.
	v[0] = 99
	if s.Vm[0] == 99 {
		t.Fatal("Vector must copy")
	}
	m := pmunet.Mask{true, false}
	ms := s.WithMask(m)
	if ms.Complete() || !ms.Missing(0) || ms.Missing(1) {
		t.Fatal("mask not applied")
	}
	fm := ms.MaskFor(Stacked)
	if !fm[0] || fm[1] || !fm[2] || fm[3] {
		t.Fatalf("MaskFor(Stacked) = %v", fm)
	}
	fa := ms.MaskFor(Angle)
	if !fa[0] || fa[1] {
		t.Fatalf("MaskFor(Angle) = %v", fa)
	}
	vm, va := s.Phasor2D(1)
	if vm != 1.02 || va != -0.1 {
		t.Fatal("Phasor2D wrong")
	}
}

func TestScenarioBasics(t *testing.T) {
	var sc Scenario
	if !sc.Normal() || sc.Key() != "normal" {
		t.Fatal("empty scenario must be normal")
	}
	e := grid.Line(0)
	sc = Scenario{e}
	if sc.Normal() {
		t.Fatal("non-empty scenario is not normal")
	}
	if sc.Key() != "lines-0" {
		t.Fatalf("Key = %q", sc.Key())
	}
}

func TestGenerateScenarioNormal(t *testing.T) {
	g := cases.IEEE14()
	set, err := GenerateScenario(g, nil, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if set.T() != 6 {
		t.Fatalf("T = %d", set.T())
	}
	for _, s := range set.Samples {
		if s.N() != 14 {
			t.Fatalf("sample has %d buses", s.N())
		}
		for i, vm := range s.Vm {
			if vm < 0.8 || vm > 1.2 {
				t.Fatalf("bus %d implausible Vm %v", i, vm)
			}
		}
	}
	// Samples vary over time (OU + noise).
	if set.Samples[0].Va[5] == set.Samples[1].Va[5] {
		t.Fatal("no temporal variation")
	}
}

func TestGenerateScenarioDeterministic(t *testing.T) {
	g := cases.IEEE14()
	a, err := GenerateScenario(g, Scenario{3}, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateScenario(g, Scenario{3}, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for t0 := range a.Samples {
		for i := range a.Samples[t0].Vm {
			if a.Samples[t0].Vm[i] != b.Samples[t0].Vm[i] {
				t.Fatal("generation not deterministic")
			}
		}
	}
}

func TestGenerateFullDeterministic(t *testing.T) {
	// The whole pipeline — load process, noise, per-scenario seeds — must
	// be a pure function of (grid, config): no global rand anywhere.
	g := cases.IEEE14()
	a, err := Generate(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.ValidLines, b.ValidLines) {
		t.Fatalf("valid lines differ: %v vs %v", a.ValidLines, b.ValidLines)
	}
	if !reflect.DeepEqual(a.Normal.Samples, b.Normal.Samples) {
		t.Fatal("normal sets differ between identically-seeded runs")
	}
	for _, e := range a.ValidLines {
		if !reflect.DeepEqual(a.OutageSet(e).Samples, b.OutageSet(e).Samples) {
			t.Fatalf("line %d outage sets differ between identically-seeded runs", e)
		}
	}
}

func TestGenerateScenarioIslanding(t *testing.T) {
	g := cases.IEEE14()
	// Line 13 (7-8) is bus 8's only connection in IEEE-14: removal islands.
	e := g.FindLine(6, 7)
	if e < 0 {
		t.Fatal("line 7-8 not found")
	}
	_, err := GenerateScenario(g, Scenario{e}, smallConfig())
	if !errors.Is(err, ErrInvalidScenario) {
		t.Fatalf("expected ErrInvalidScenario, got %v", err)
	}
}

func TestGenerateFull(t *testing.T) {
	g := cases.IEEE14()
	d, err := Generate(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Normal.T() != 6 {
		t.Fatal("normal set wrong length")
	}
	// IEEE-14 has exactly one islanding line (7-8), so 19 valid cases.
	if len(d.ValidLines) != 19 {
		t.Fatalf("valid lines = %d, want 19", len(d.ValidLines))
	}
	for _, e := range d.ValidLines {
		if d.OutageSet(e) == nil || d.OutageSet(e).T() != 6 {
			t.Fatalf("line %d set missing or short", e)
		}
	}
	if d.OutageSet(g.FindLine(6, 7)) != nil {
		t.Fatal("islanding line must be excluded")
	}
}

func TestOutageSignatureVisibleInData(t *testing.T) {
	// The angle profile under an outage must differ from normal by much
	// more than the noise floor — otherwise nothing is learnable.
	g := cases.IEEE14()
	cfg := smallConfig()
	normal, err := GenerateScenario(g, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := GenerateScenario(g, Scenario{0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var maxDiff float64
	for i := 0; i < g.N(); i++ {
		d := math.Abs(normal.Samples[0].Va[i] - out.Samples[0].Va[i])
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff < 0.01 {
		t.Fatalf("outage signature %.4f rad too small vs 1e-3 noise", maxDiff)
	}
}

func TestMatrixShape(t *testing.T) {
	g := cases.IEEE14()
	set, err := GenerateScenario(g, nil, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := set.Matrix(Angle)
	if r, c := x.Dims(); r != 14 || c != 6 {
		t.Fatalf("Matrix dims = %dx%d", r, c)
	}
	xs := set.Matrix(Stacked)
	if r, _ := xs.Dims(); r != 28 {
		t.Fatalf("stacked rows = %d", r)
	}
	if x.At(3, 2) != set.Samples[2].Va[3] {
		t.Fatal("matrix layout wrong: columns must be time instants")
	}
	empty := &Set{}
	if r, c := empty.Matrix(Angle).Dims(); r != 0 || c != 0 {
		t.Fatal("empty set must give empty matrix")
	}
}

func TestSplit(t *testing.T) {
	set := &Set{}
	for i := 0; i < 10; i++ {
		set.Samples = append(set.Samples, Sample{Vm: []float64{float64(i)}, Va: []float64{0}})
	}
	train, test := set.Split(0.7, 3)
	if train.T() != 7 || test.T() != 3 {
		t.Fatalf("split sizes %d/%d", train.T(), test.T())
	}
	// No overlap, full coverage.
	seen := map[float64]int{}
	for _, s := range train.Samples {
		seen[s.Vm[0]]++
	}
	for _, s := range test.Samples {
		seen[s.Vm[0]]++
	}
	if len(seen) != 10 {
		t.Fatalf("split lost samples: %d unique", len(seen))
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("sample %v appears %d times", v, n)
		}
	}
	// Degenerate fractions clamp.
	tr, te := set.Split(-1, 1)
	if tr.T() != 0 || te.T() != 10 {
		t.Fatal("negative fraction must clamp to 0")
	}
	tr, te = set.Split(2, 1)
	if tr.T() != 10 || te.T() != 0 {
		t.Fatal("fraction >1 must clamp to 1")
	}
}

func TestDCGeneration(t *testing.T) {
	g := cases.IEEE14()
	cfg := smallConfig()
	cfg.UseDC = true
	d, err := Generate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// DC magnitudes are 1.0 plus noise only.
	for _, s := range d.Normal.Samples {
		for _, vm := range s.Vm {
			if math.Abs(vm-1) > 0.01 {
				t.Fatalf("DC magnitude %v, want ~1", vm)
			}
		}
	}
	if len(d.ValidLines) == 0 {
		t.Fatal("no valid DC outage cases")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := cases.IEEE14()
	cfg := smallConfig()
	cfg.UseDC = true
	d, err := Generate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Attach a mask to one sample to exercise that path.
	d.Normal.Samples[0].Mask = pmunet.Mask(make([]bool, g.N()))
	d.Normal.Samples[0].Mask[3] = true

	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	name, err := SystemName(bytes.NewReader(raw))
	if err != nil || name != "ieee14" {
		t.Fatalf("SystemName = %q, %v", name, err)
	}

	d2, err := ReadJSON(bytes.NewReader(raw), g)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Normal.T() != d.Normal.T() || len(d2.ValidLines) != len(d.ValidLines) {
		t.Fatal("round trip lost sets")
	}
	if !d2.Normal.Samples[0].Missing(3) || d2.Normal.Samples[0].Missing(2) {
		t.Fatal("mask not preserved")
	}
	for i := range d.Normal.Samples[1].Vm {
		if d.Normal.Samples[1].Vm[i] != d2.Normal.Samples[1].Vm[i] {
			t.Fatal("values not preserved")
		}
	}
}

func TestReadJSONRejectsMismatchedGrid(t *testing.T) {
	g := cases.IEEE14()
	cfg := smallConfig()
	cfg.UseDC = true
	cfg.Steps = 2
	d, err := Generate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJSON(bytes.NewReader(buf.Bytes()), cases.IEEE30()); err == nil {
		t.Fatal("expected system mismatch error")
	}
	if _, err := ReadJSON(bytes.NewReader([]byte("{bad")), g); err == nil {
		t.Fatal("expected decode error")
	}
}
