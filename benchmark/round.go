package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/join"
)

// ops counts what the benchmark asked of the program and what went wrong:
// every New/Submit/Step/Report call and every determinism or coverage check
// is one attempt.
type ops struct {
	attempted, failed int
	notes             []string
}

func (o *ops) fail(format string, args ...any) {
	o.failed++
	if len(o.notes) < 20 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// check counts one check and records its failure.
func (o *ops) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
}

// round is what one round measured. Durations are nanoseconds of host time.
type round struct {
	setupNs  int64
	steadyNs int64   // wall time of the steady phase, arrivals included
	stepNs   []int64 // one entry per steady Step
	// allocBytes, mallocs and gcPauseNs are runtime.MemStats deltas across
	// the steady phase.
	allocBytes, mallocs, gcPauseNs uint64
	traced                         bool
	report                         *engine.Report
}

// runRound executes one round of the protocol: set-up (New + initial Submits
// + first Step, plus turnover's warm-up), then the steady Steps each timed on
// its own, then Run(0) to retire and Report. With setupOnly it stops after
// set-up. The engine is returned so the caller can keep it live for the heap
// reading. A panic inside the program is recovered and counted as a failed
// operation.
func runRound(in *inputs, tr *tracer, o *ops, setupOnly bool) (r round, e *engine.Engine) {
	defer func() {
		if p := recover(); p != nil {
			o.fail("%s: panic: %v", in.spec.name, p)
		}
	}()
	s := in.spec
	r.traced = tr != nil
	submit := func(parent int, qc engine.QueryConfig) {
		id := tr.begin("engine.Submit", parent)
		_, err := e.Submit(qc)
		tr.end(id)
		o.check(err == nil, "%s: submit %s: %v", s.name, qc.ID, err)
	}
	step := func(parent int, name string) {
		id := tr.begin(name, parent)
		e.Step()
		tr.end(id)
		o.attempted++
	}

	root := tr.begin("round", -1)
	setup := tr.begin("setup", root)
	t0 := time.Now()
	id := tr.begin("engine.New", setup)
	e = engine.New(in.opts)
	tr.end(id)
	o.attempted++
	var algs []join.Continuous
	if s.turnover {
		id = tr.begin("routers", setup)
		algs = algorithms(e.Topo)
		tr.end(id)
	}
	for _, qc := range in.initial(e) {
		submit(setup, qc)
	}
	arrivals := 0
	arrive := func(parent int) {
		for k := 0; k < arrivalsPerEpoch && s.turnover; k++ {
			submit(parent, in.arrival(e, algs, arrivals))
			arrivals++
		}
	}
	arrive(setup)
	step(setup, "engine.Step.admit")
	for i := 0; i < s.warmup; i++ {
		arrive(setup)
		step(setup, "engine.Step.warmup")
	}
	r.setupNs = int64(time.Since(t0))
	tr.end(setup)
	if setupOnly {
		tr.end(root)
		return r, e
	}

	r.stepNs = make([]int64, s.epochs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	steady := tr.begin("steady", root)
	t0 = time.Now()
	for i := range r.stepNs {
		arrive(steady)
		id := tr.begin("engine.Step", steady)
		t := time.Now()
		e.Step()
		r.stepNs[i] = int64(time.Since(t))
		tr.end(id)
	}
	r.steadyNs = int64(time.Since(t0))
	tr.end(steady)
	runtime.ReadMemStats(&after)
	o.attempted += s.epochs
	r.allocBytes = after.TotalAlloc - before.TotalAlloc
	r.mallocs = after.Mallocs - before.Mallocs
	r.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs

	id = tr.begin("engine.Run.retire", root)
	e.Run(0)
	tr.end(id)
	id = tr.begin("engine.Report", root)
	r.report = e.Report()
	tr.end(id)
	o.attempted += 2
	tr.end(root)
	return r, e
}

// sameReport is the determinism check: two rounds of one run (and a parallel
// workload and its sequential twin) fed identical inputs must report
// identical simulated outcomes, field for field.
func sameReport(a, b *engine.Report) bool { return reflect.DeepEqual(a, b) }

// guards evaluates the coverage guards: a workload that stops exercising the
// mechanism it exists for fails instead of getting "faster".
func guards(s spec, rep *engine.Report, o *ops) {
	o.check(rep.Results > 0, "%s: no join results delivered", s.name)
	if s.churn {
		o.check(rep.PathsRepaired > 0, "%s: no path repaired", s.name)
		o.check(rep.BaseFallbacks > 0, "%s: no base fallback", s.name)
		o.check(rep.TreesPatched > 0, "%s: no tree patched", s.name)
		o.check(rep.TreesRebuilt > 0, "%s: no tree rebuilt", s.name)
		o.check(rep.LinkRerouted+rep.LinkFallbacks > 0, "%s: no link-fault recovery", s.name)
	}
	if s.adapt {
		o.check(rep.Migrations > 0, "%s: no migration committed", s.name)
	}
	if s.turnover {
		delivered := map[string]bool{}
		for _, q := range rep.Queries {
			if q.State == "retired" && q.Results > 0 {
				delivered[q.Algorithm] = true
			}
		}
		o.check(len(delivered) == len(algLabels),
			"%s: only %d of %d algorithms retired a query with results", s.name, len(delivered), len(algLabels))
	}
}

// pass is one measuring pass over one workload.
type pass struct {
	rounds  []round
	setupNs []int64 // every set-up sample, rounds' included
	// twin holds rounds of the sequential twin (parallel workloads only).
	twin     []round
	liveHeap uint64
	ops      ops
	trace    *tracer
}

// effort is how much a pass measures: rounds for seconds of wall time, then
// set-up-only repetitions until setup_s has minSetups samples. The zero value
// is the least the protocol allows, which is what the smoke test runs.
type effort struct {
	seconds   float64
	minSetups int
}

// minRounds is the least number of rounds of a pass: the determinism check
// needs a pair, and a traced pass one round of each kind.
const minRounds = 2

// measure runs rounds of in for ef.seconds. With traced set, rounds alternate
// untraced and traced so that tracing overhead is measured against the same
// machine state, and twinRounds rounds of the sequential twin are interleaved
// (a parallel workload needs at least one for the Report comparison).
func measure(in *inputs, ef effort, traced bool, twinRounds int) *pass {
	p := &pass{}
	if traced {
		p.trace = newTracer()
	}
	var twinIn *inputs
	if in.spec.twin != "" {
		t := *in
		t.opts.Workers = 1
		twinIn = &t
	}
	var last *engine.Engine
	deadline := time.Now().Add(time.Duration(ef.seconds * float64(time.Second)))
	for n := 0; n < minRounds || time.Now().Before(deadline); n++ {
		last = nil
		runtime.GC()
		var tr *tracer
		if traced && n%2 == 1 {
			tr = p.trace
			tr.round = n
		}
		r, e := runRound(in, tr, &p.ops, false)
		if r.report == nil {
			break // the round panicked; the failure is already counted
		}
		last = e
		p.rounds = append(p.rounds, r)
		p.setupNs = append(p.setupNs, r.setupNs)
		p.ops.check(sameReport(p.rounds[0].report, r.report),
			"%s: round %d reported differently from round 0", in.spec.name, n)
		if twinIn != nil && len(p.twin) < twinRounds {
			runtime.GC()
			t, _ := runRound(twinIn, nil, &p.ops, false)
			if t.report != nil {
				p.ops.check(sameReport(r.report, t.report),
					"%s: report differs from sequential twin %s", in.spec.name, in.spec.twin)
				t.report = nil
				p.twin = append(p.twin, t)
			}
		}
		if n > 0 {
			// Only round 0's report is kept, so that the live-heap reading
			// does not grow with the number of rounds a run fits in.
			p.rounds[n].report = nil
		}
	}
	if last != nil {
		p.liveHeap = heapNow()
		runtime.KeepAlive(last)
		guards(in.spec, p.rounds[0].report, &p.ops)
	}
	last = nil
	for len(p.rounds) > 0 && len(p.setupNs) < ef.minSetups {
		runtime.GC()
		r, _ := runRound(in, nil, &p.ops, true)
		p.setupNs = append(p.setupNs, r.setupNs)
	}
	return p
}
