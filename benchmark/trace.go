package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval recorded by the harness around a call into the
// program: its name, start and end in nanoseconds since the tracer was made,
// the span that caused it (-1 for a round's root) and the round it belongs to
// (the identifier the spans of one round share).
type span struct {
	name       string
	start, end int64
	parent     int
	round      int
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced pass.
type tracer struct {
	origin time.Time
	spans  []span
	round  int
}

func newTracer() *tracer { return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.origin)), parent: parent, round: t.round})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].end = int64(time.Since(t.origin))
	}
}

// byName returns the durations of every span with the given name.
func (t *tracer) byName(name string) []int64 {
	var out []int64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// writeChrome writes the spans as a Chrome trace_event file (load it in
// chrome://tracing or ui.perfetto.dev): one complete event per span, one
// thread lane per round.
func (t *tracer) writeChrome(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"round":%d}}`,
			s.name, s.round, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.round)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
