// Epoch trace recorder: spans (named, timed intervals) collected per lane
// — lane 0 is the scheduler, lanes 1..W the worker pool — and emitted as
// JSONL or as Chrome trace_event JSON loadable in chrome://tracing /
// ui.perfetto.dev. Wall-clock timestamps live only here: they are never
// folded into simulated outcomes, so a traced run's drift-gate rows
// (internal/bench/testdata/scenarios.golden) stay byte-identical to an
// untraced one's.

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Event is one completed span in Chrome trace_event form ("ph":"X"):
// timestamps and durations are microseconds relative to the trace start,
// lanes map to Chrome's thread rows, and logical coordinates (epoch,
// query) ride in Args so a span is attributable without wall clocks.
type Event struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	TS   int64  `json:"ts"`
	Dur  int64  `json:"dur"`
	PID  int    `json:"pid"`
	TID  int    `json:"tid"`
	Args *Args  `json:"args,omitempty"`
}

// Args carries the logical coordinates of a span.
type Args struct {
	// Epoch is the scheduler epoch the span belongs to (-1 when the span
	// is not epoch-scoped, e.g. engine construction).
	Epoch int `json:"epoch"`
	// Query labels per-query spans ("" otherwise).
	Query string `json:"query,omitempty"`
}

// Tracer records spans across lanes. A nil *Tracer is the disabled
// recorder: Lane returns nil and nil-Lane spans are no-ops, so traced code
// pays one pointer compare when tracing is off.
//
// Lanes are single-writer: the scheduler owns lane 0, worker w owns lane
// 1+w while the pool runs. Lane creation locks; span appends do not.
type Tracer struct {
	start time.Time
	mu    sync.Mutex
	lanes []*Lane
}

// NewTracer starts an empty trace; spans are timestamped relative to now.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now()}
}

// Enabled reports whether the tracer records (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Lane returns the lane for thread id tid, creating lanes up to tid as
// needed. Returns nil on a nil tracer. Callers cache the result: Lane
// locks, Lane.Span does not.
func (t *Tracer) Lane(tid int) *Lane {
	if t == nil || tid < 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.lanes) <= tid {
		t.lanes = append(t.lanes, &Lane{tracer: t, tid: len(t.lanes)})
	}
	return t.lanes[tid]
}

// Lane is one single-writer span stream (one Chrome thread row).
type Lane struct {
	tracer *Tracer
	tid    int
	events []Event
}

// Span records a completed interval that began at start and ends now.
// Epoch and query are the span's logical coordinates (epoch -1 and ""
// when not applicable). No-op on a nil lane.
func (l *Lane) Span(name string, epoch int, query string, start time.Time) {
	if l == nil {
		return
	}
	ts := start.Sub(l.tracer.start).Microseconds()
	dur := time.Since(start).Microseconds()
	ev := Event{Name: name, Ph: "X", TS: ts, Dur: dur, TID: l.tid}
	if epoch >= 0 || query != "" {
		ev.Args = &Args{Epoch: epoch, Query: query}
	}
	l.events = append(l.events, ev)
}

// Events returns every recorded span, lane by lane (lane order, then
// record order within a lane). Call only while no lane is being written
// (after a run, or between epochs).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Event
	for _, l := range t.lanes {
		out = append(out, l.events...)
	}
	return out
}

// WriteJSONL emits one JSON event object per line — the grep/jq-friendly
// form.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	for _, ev := range t.Events() {
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", data); err != nil {
			return err
		}
	}
	return nil
}

// WriteChrome emits the Chrome trace_event JSON object
// ({"traceEvents":[...]}) that chrome://tracing and Perfetto load
// directly.
func (t *Tracer) WriteChrome(w io.Writer) error {
	doc := struct {
		TraceEvents []Event `json:"traceEvents"`
	}{TraceEvents: t.Events()}
	if doc.TraceEvents == nil {
		doc.TraceEvents = []Event{}
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
