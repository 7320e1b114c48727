package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// outcome classifies one request of a load phase.
type outcome int

const (
	outcomeOK     outcome = iota
	outcomeShed           // the server refused it with an overloaded code
	outcomeFailed         // transport error, timeout, or any other status
)

// sendFunc issues request i of a phase and waits for its reply.
type sendFunc func(ctx context.Context, i int) outcome

// phase is the record of one load phase: the per-phase counts the
// benchmark reports, and per-request latency and lateness.
type phase struct {
	Name    string  `json:"name"`
	Loop    string  `json:"loop"` // "open" or "closed"
	Rate    float64 `json:"rate_rps,omitempty"`
	Senders int     `json:"senders"`
	Sent    int     `json:"sent"`
	OK      int     `json:"ok"`
	Shed    int     `json:"shed"`
	Failed  int     `json:"failed"`
	// Unsent counts scheduled requests the phase never sent because its
	// deadline passed; they count as failed.
	Unsent    int     `json:"unsent"`
	ElapsedS  float64 `json:"elapsed_s"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	LateP99Ms float64 `json:"late_p99_ms,omitempty"`

	// latMs holds one latency per attempted request, in milliseconds;
	// a request that failed, was shed or was never sent reads +Inf, so
	// it misses every latency limit.
	latMs  []float64
	lateMs []float64
}

// attempted is every request the phase scheduled or issued.
func (p *phase) attempted() int { return p.Sent + p.Unsent }

// bad is every attempted request that did not succeed.
func (p *phase) bad() int { return p.Shed + p.Failed + p.Unsent }

func (p *phase) finish(elapsed time.Duration) {
	p.ElapsedS = elapsed.Seconds()
	p.P50Ms = quantile(p.latMs, 0.50)
	p.P99Ms = quantile(p.latMs, 0.99)
	p.LateP99Ms = quantile(p.lateMs, 0.99)
}

// openLoop sends n requests on a fixed schedule, request i due at
// start + i/rate, from at most senders goroutines. A request that
// finds every sender still busy at its due instant is timed from that
// instant, so a slow reply delays the requests queued behind it and
// that wait is counted; the schedule itself never slows down, so a
// slow server shows as latency and lateness, never as a lower offered
// rate. A request whose sender was idle and waiting for it is timed
// from the send: the timer wake-up slop (about half a millisecond on
// a 2-vCPU cloud VM) is the generator's own, and shows only in the
// lateness. Requests still unsent when ctx ends count as
// failed. With spans non-nil every sent request records a "request"
// span from its due instant to its reply, with a "wait" child (due to
// send) and an "http" child (send to reply).
func openLoop(ctx context.Context, name string, senders int, rate float64, n int, send sendFunc, spans *spanLog) *phase {
	p := &phase{Name: name, Loop: "open", Rate: rate, Senders: senders}
	lat := make([]float64, n)
	late := make([]float64, n)
	res := make([]outcome, n)
	sent := make([]bool, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				behind := !time.Now().Before(due)
				if !sleepUntil(ctx, due) {
					lat[i], res[i] = math.Inf(1), outcomeFailed
					continue
				}
				at := time.Now()
				res[i] = send(ctx, i)
				end := time.Now()
				sent[i] = true
				if spans != nil {
					root := spans.newID()
					spans.add(root, "wait", due, at)
					spans.add(root, "http", at, end)
					spans.record(root, 0, "request", due, end)
				}
				late[i] = ms(at.Sub(due))
				origin := at
				if behind {
					origin = due
				}
				lat[i] = ms(end.Sub(origin))
			}
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if !sent[i] {
			p.Unsent++
			p.latMs = append(p.latMs, math.Inf(1))
			continue
		}
		p.Sent++
		p.lateMs = append(p.lateMs, late[i])
		switch res[i] {
		case outcomeOK:
			p.OK++
			p.latMs = append(p.latMs, lat[i])
		case outcomeShed:
			p.Shed++
			p.latMs = append(p.latMs, math.Inf(1))
		default:
			p.Failed++
			p.latMs = append(p.latMs, math.Inf(1))
		}
	}
	p.finish(time.Since(start))
	return p
}

// closedLoop runs senders clients for d, each sending its next request
// only after the previous reply. Request indices are handed out in
// order across the clients.
func closedLoop(ctx context.Context, name string, senders int, d time.Duration, send sendFunc) *phase {
	p := &phase{Name: name, Loop: "closed", Senders: senders}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	start := time.Now()
	stop := start.Add(d)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			var ok, shed, failed int
			for ctx.Err() == nil && time.Now().Before(stop) {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				o := send(ctx, i)
				el := ms(time.Since(t0))
				switch o {
				case outcomeOK:
					ok++
				case outcomeShed:
					shed++
					el = math.Inf(1)
				default:
					failed++
					el = math.Inf(1)
				}
				lat = append(lat, el)
			}
			mu.Lock()
			defer mu.Unlock()
			p.latMs = append(p.latMs, lat...)
			p.Sent += len(lat)
			p.OK += ok
			p.Shed += shed
			p.Failed += failed
		}()
	}
	wg.Wait()
	p.finish(time.Since(start))
	return p
}

// sleepUntil waits for t; it reports false if ctx ended first.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by the nearest-rank rule on a
// sorted copy (0 for an empty slice). +Inf entries sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// median is the middle value of xs, or the mean of the two middle
// values for an even count (0 for an empty slice).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
