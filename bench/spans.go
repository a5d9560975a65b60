package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a name, start and end in ns
// since the recorder was made, and the span that caused it. The spans of one
// request share its request id.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: none
	Request int    `json:"request,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced run pays nothing for it.
type spanRecorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (r *spanRecorder) begin(name string, parent, request int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Stamped under the lock, so spans are stored in start order.
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Request: request,
		Name: name, StartNs: time.Since(r.epoch).Nanoseconds()})
	return len(r.spans)
}

func (r *spanRecorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNs = now
	r.mu.Unlock()
}

// selfTimes returns, per span name, the summed duration minus the part of each
// interval its child spans cover. Children of concurrent connections overlap,
// so cover is the union of their intervals, not their sum.
func (r *spanRecorder) selfTimes() map[string]int64 {
	covered := make([]int64, len(r.spans)+1)
	reach := make([]int64, len(r.spans)+1) // end of the parent's covered prefix
	for _, s := range r.spans {            // start order
		from := max(s.StartNs, reach[s.Parent])
		if s.EndNs > from {
			covered[s.Parent] += s.EndNs - from
			reach[s.Parent] = s.EndNs
		}
	}
	self := map[string]int64{}
	for _, s := range r.spans {
		self[s.Name] += s.EndNs - s.StartNs - covered[s.ID]
	}
	return self
}

func (r *spanRecorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
