package comm

import (
	"bytes"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"pmuoutage/internal/obs"
)

// TestCollectorStatsRegistryParity: Stats() and a registry the collector
// is Registered on read the same cells, so the JSON snapshot and the
// Prometheus exposition agree after any traffic pattern.
func TestCollectorStatsRegistryParity(t *testing.T) {
	c, err := NewCollector(2, "127.0.0.1:0", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var logBuf bytes.Buffer
	c.SetLogger(obs.NewTextLogger(&logBuf, slog.LevelDebug))
	r := obs.NewRegistry()
	c.Register(r)

	// Two complete emissions, then one incomplete via Flush.
	for seq := 0; seq < 2; seq++ {
		c.ingest(ClusterFrame{PDC: 0, Seq: seq, Buses: []int{0, 1}, Vm: []float64{1, 1}, Va: []float64{0, 0}})
	}
	c.ingest(ClusterFrame{PDC: 0, Seq: 9, Buses: []int{0}, Vm: []float64{1}, Va: []float64{0}})
	if got := r.GaugeValue(metricPending); got != 1 {
		t.Fatalf("pending gauge = %v, want 1", got)
	}
	c.Flush()
	// A straggler for an already-emitted sequence is dropped as late.
	c.ingest(ClusterFrame{PDC: 1, Seq: 0, Buses: []int{1}, Vm: []float64{1}, Va: []float64{0}})

	st := c.Stats()
	if st.Emitted != 3 || st.Incomplete != 1 || st.Pending != 0 || st.Late != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	for metric, want := range map[string]uint64{
		metricEmitted:    st.Emitted,
		metricIncomplete: st.Incomplete,
		metricDropped:    st.DroppedFull,
		metricEvicted:    st.Evicted,
		metricLate:       st.Late,
	} {
		if got := r.CounterValue(metric); got != want {
			t.Errorf("%s = %d, Stats says %d", metric, got, want)
		}
	}
	if got := r.GaugeValue(metricPending); got != float64(st.Pending) {
		t.Fatalf("pending gauge = %v, Stats says %d", got, st.Pending)
	}
	// PDC 0 was heard from, so its deadline gauge is exported; with no
	// latency history it sits at the configured maximum.
	if got := r.GaugeValue(metricPDCDeadline, labelPDC, "0"); got != time.Hour.Seconds() {
		t.Fatalf("pdc deadline gauge = %v, want %v", got, time.Hour.Seconds())
	}

	// The incomplete emission logged a structured event.
	logs := logBuf.String()
	if !strings.Contains(logs, "incomplete sample emitted") || !strings.Contains(logs, "component=comm") {
		t.Fatalf("missing incomplete-emission log:\n%s", logs)
	}
}

// TestCollectorCountsBeforeHandoff: a sample is counted before its
// consumer sees it, so Stats read right after a receive, or from inside
// the sink, never lags what the consumer already holds.
func TestCollectorCountsBeforeHandoff(t *testing.T) {
	complete := func(seq int) ClusterFrame {
		return ClusterFrame{PDC: 0, Seq: seq, Buses: []int{0, 1}, Vm: []float64{1, 1}, Va: []float64{0, 0}}
	}

	t.Run("sink", func(t *testing.T) {
		c, err := NewCollector(2, "127.0.0.1:0", time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var seen, seenIncomplete uint64
		c.SetSink(func(a Assembled) {
			seen++
			if a.Sample.Mask != nil {
				seenIncomplete++
			}
			if st := c.Stats(); st.Emitted != seen || st.Incomplete != seenIncomplete {
				t.Errorf("inside sink after %d samples (%d incomplete): %+v", seen, seenIncomplete, st)
			}
		})
		c.ingest(complete(0))
		c.ingest(ClusterFrame{PDC: 0, Seq: 1, Buses: []int{0}, Vm: []float64{1}, Va: []float64{0}})
		c.Flush()
		if seen != 2 || seenIncomplete != 1 {
			t.Fatalf("sink saw %d samples (%d incomplete), want 2 (1)", seen, seenIncomplete)
		}
	})

	t.Run("channel", func(t *testing.T) {
		c, err := NewCollector(2, "127.0.0.1:0", time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		const feeders, perFeeder = 4, 3000
		var received uint64
		var lagged int
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range c.Samples() {
				received++
				if c.Stats().Emitted < received {
					lagged++
				}
			}
		}()
		var wg sync.WaitGroup
		for f := 0; f < feeders; f++ {
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				for i := 0; i < perFeeder; i++ {
					c.ingest(complete(f*perFeeder + i))
				}
			}(f)
		}
		wg.Wait()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		<-done
		if lagged != 0 {
			t.Fatalf("Stats().Emitted lagged the consumer on %d of %d receives", lagged, received)
		}
		st := c.Stats()
		if st.Emitted != received || st.Emitted+st.DroppedFull != feeders*perFeeder {
			t.Fatalf("received %d of %d, stats %+v", received, feeders*perFeeder, st)
		}
	})
}
