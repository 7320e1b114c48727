package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code: spans of one request share the root's ID as their parent.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the log was created
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run writes them out.
type spanLog struct {
	base time.Time

	mu    sync.Mutex
	next  uint64
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// newID reserves a span ID, so a parent can be recorded after its
// children once its end is known.
func (l *spanLog) newID() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

// add records a new child span of parent and returns its ID.
func (l *spanLog) add(parent uint64, name string, start, end time.Time) uint64 {
	id := l.newID()
	l.record(id, parent, name, start, end)
	return id
}

// record stores span id.
func (l *spanLog) record(id, parent uint64, name string, start, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name,
		StartNs: start.Sub(l.base).Nanoseconds(), EndNs: end.Sub(l.base).Nanoseconds()})
}

// write stores every span as one JSON array.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
