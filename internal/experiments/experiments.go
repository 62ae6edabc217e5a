// Package experiments regenerates every table and figure of the paper's
// evaluation. Each Experiment produces the rows/series the corresponding
// figure plots; the aspen-exp CLI prints them, and bench_test.go wraps
// each as a benchmark. Absolute byte counts differ from the paper (our
// substrate is a simulator with its own wire constants; see DESIGN.md),
// but the shapes — who wins, by roughly what factor, where crossovers
// fall — are the reproduction target: `aspen-exp -run <id>` prints an
// artifact's rows, and the shape tests in experiments_test.go
// (TestFig2Shapes … TestFig19MeshOrdering) assert the paper's claim on
// them.
//
// Table 3 is the exception: tab3 prints Naive's and Base's computation
// cost from a lossless run twice, from replayed sends times D_sr and from
// measured data bytes, and the two are equal. internal/join's
// TestTable3Identity checks every fixed-placement algorithm's data and
// result bytes the same way. Its named departures from the table (result
// batch headers, a both-role node's one reading, no path vector on data
// tuples, merged packets, and retransmissions, excluded at loss 0) are
// listed in DESIGN.md, "Wire model".
package experiments

import (
	"fmt"

	"repro/internal/stats"
)

// Config controls how an experiment runs.
type Config struct {
	// Runs is the number of seeds averaged per data point (the paper uses
	// 9). Quick mode reduces it.
	Runs int
	// Quick trims sweeps (fewer cycles, fewer stages) so the whole suite
	// can run in CI and in benchmarks; full mode reproduces the paper's
	// parameters.
	Quick bool
	// Seed is the base seed; run i uses Seed+i.
	Seed uint64
	// Workers sizes the engine.Sweep worker pool that fans per-seed runs
	// across CPU cores (0 = runtime.NumCPU()). Results are byte-identical
	// for any worker count: every run derives all randomness from its
	// seed index and results are collected in seed order.
	Workers int
}

// DefaultConfig is the paper-faithful configuration.
func DefaultConfig() Config { return Config{Runs: 9, Seed: 1} }

// QuickConfig is the CI/bench configuration.
func QuickConfig() Config { return Config{Runs: 3, Quick: true, Seed: 1} }

// Row is one data point of a figure: a label path (e.g. stage, join
// selectivity, algorithm, metric) and the summarized value.
type Row struct {
	Labels []string
	Value  stats.Summary
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	// ID is the registry key ("fig2", "tab3", ...).
	ID string
	// Title describes the artifact.
	Title string
	// Columns names the label columns followed by the value column.
	Columns []string
	// Run produces the data points.
	Run func(cfg Config) []Row
}

var registry = map[string]*Experiment{}
var order []string

func register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
	order = append(order, e.ID)
}

// Lookup returns the experiment with the given ID, or nil.
func Lookup(id string) *Experiment { return registry[id] }

// IDs returns all registered experiment IDs in registration order.
func IDs() []string {
	out := append([]string{}, order...)
	return out
}

// Render formats an experiment's rows as an aligned table.
func Render(e *Experiment, rows []Row) string {
	tb := stats.NewTable(e.Columns...)
	for _, r := range rows {
		tb.AddRow(r.Labels, r.Value)
	}
	return fmt.Sprintf("%s — %s\n%s", e.ID, e.Title, tb.String())
}
