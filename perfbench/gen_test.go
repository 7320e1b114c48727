package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pmuoutage"
	"pmuoutage/api"
)

// A handler slower than the schedule must show up as latency and
// lateness while every scheduled request is still sent: the offered
// load does not drop.
func TestOpenLoopSlowHandlerShowsAsLatency(t *testing.T) {
	const (
		n     = 20
		rate  = 200 // one request due every 5 ms
		delay = 20 * time.Millisecond
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
	}))
	defer srv.Close()
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	send := func(ctx context.Context, i int) outcome {
		status, body, err := post(ctx, hc, srv.URL, "application/json", nil)
		return classify(status, body, err)
	}
	p := openLoop(context.Background(), "slow", 1, rate, n, send, nil)
	if p.Sent != n || p.OK != n || p.Unsent != 0 {
		t.Fatalf("sent %d ok %d unsent %d, want all %d sent and ok", p.Sent, p.OK, p.Unsent, n)
	}
	// The last request is due at 95 ms but can only start after 19
	// replies of 20 ms each: about 285 ms late.
	if p.LateP99Ms < 200 {
		t.Errorf("lateness p99 %.1f ms, want the backlog (>= 200 ms) to show", p.LateP99Ms)
	}
	if p.P99Ms < p.LateP99Ms+ms(delay) {
		t.Errorf("latency p99 %.1f ms does not include lateness %.1f ms plus service %v", p.P99Ms, p.LateP99Ms, delay)
	}
	if min := float64(n) * delay.Seconds(); p.ElapsedS < min {
		t.Errorf("phase took %.3f s, faster than %d serial %v replies", p.ElapsedS, n, delay)
	}
}

// Failed requests count as missing every latency limit.
func TestOpenLoopFailuresMissEveryLimit(t *testing.T) {
	send := func(ctx context.Context, i int) outcome {
		if i%2 == 0 {
			return outcomeFailed
		}
		return outcomeOK
	}
	p := openLoop(context.Background(), "half", 2, 1000, 10, send, nil)
	if p.Failed != 5 || p.OK != 5 {
		t.Fatalf("failed %d ok %d, want 5 and 5", p.Failed, p.OK)
	}
	if p.P99Ms < 1e300 {
		t.Errorf("p99 %.3f ms with half the requests failed, want +Inf", p.P99Ms)
	}
}

// The detect output check passes served reports equal to the direct
// library answer and trips on a single mutated report.
func TestCheckOutputsTripsOnMutatedReport(t *testing.T) {
	ctx := context.Background()
	m, err := pmuoutage.TrainModel(pmuoutage.Options{Case: "ieee14", TrainSteps: 12, UseDC: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := pmuoutage.NewSystemFromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := sys.SimulateOutage([]int{sys.ValidLines()[0]}, 3)
	if err != nil {
		t.Fatal(err)
	}
	items := []item{}
	keep := &responses{}
	for i, s := range samples {
		rep, err := sys.Detect(s)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, item{sample: s, truth: []int{sys.ValidLines()[0]}})
		body, err := json.Marshal(api.DetectResponse{Shard: shardName, Reports: []*pmuoutage.Report{rep}})
		if err != nil {
			t.Fatal(err)
		}
		keep.add(i, body)
	}
	w := &workload{name: "check"}
	st := &stack{model: m, sys: sys}

	res := &runResult{Metrics: map[string]metric{}}
	if _, _, err := checkAll(ctx, w, st, items, keep.got, res); err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("faithful replies failed the check: %v", res.Failures)
	}

	var resp api.DetectResponse
	if err := json.Unmarshal(keep.got[1].body, &resp); err != nil {
		t.Fatal(err)
	}
	resp.Reports[0].DeviationEnergy *= 1.0000001
	mutated, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	keep.got[1].body = mutated
	res = &runResult{Metrics: map[string]metric{}}
	if _, _, err := checkAll(ctx, w, st, items, keep.got, res); err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("one mutated reply gave %d check failures, want 1: %v", len(res.Failures), res.Failures)
	}
}

// The host factor is the trimmed mean probe reading over the quiet-host
// reference: one probe that landed on a long stall does not move it.
func TestHostFactorTrimsStalls(t *testing.T) {
	probes := make([]float64, 20)
	for i := range probes {
		probes[i] = 2 * refProbeMs
	}
	if h := hostFactor(probes); h != 2 {
		t.Fatalf("every probe at twice the reference: factor %v, want 2", h)
	}
	probes[3] = 100 * refProbeMs
	probes[7] = refProbeMs / 100
	if h := hostFactor(probes); h != 2 {
		t.Errorf("one stalled and one fast probe among 20: factor %v, want 2", h)
	}
}
