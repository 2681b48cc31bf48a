package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the
// program. Times are offsets from the tracer's origin.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	Request int64  `json:"request"` // -1 for spans not tied to one request
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// open starts a span and returns its id and the function that ends
// it. With a nil tracer both are no-ops.
func (t *tracer) open(name string, parent, request int64) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.origin)
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Request: request, StartNS: int64(start)})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.origin)
		t.mu.Lock()
		t.spans[id-1].EndNS = int64(end)
		t.mu.Unlock()
	}
}

// record adds an already-timed span.
func (t *tracer) record(name string, parent, request int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Name: name, Request: request,
		StartNS: int64(start.Sub(t.origin)), EndNS: int64(end.Sub(t.origin))})
	t.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	n := len(t.spans)
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", n, path)
	return nil
}
