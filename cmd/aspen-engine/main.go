// Command aspen-engine runs a mixed multi-query workload — many continuous
// queries over ONE shared sensor deployment — and reports per-query and
// aggregate traffic, separating the shared infrastructure cost (routing
// trees, index dissemination; charged once per network) from each query's
// own initiation/data/result traffic. With -baseline it also runs every
// query alone on its own deployment and prints the traffic-sharing win.
//
// Usage:
//
//	aspen-engine                          # built-in 4-query demo workload
//	aspen-engine -f workload.sql -epochs 200 -topo dense
//	aspen-engine -v                       # stream per-epoch progress
//
// The workload-file format (-f) is documented in one place, the -h text:
//
//	aspen-engine -h
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	aspen "repro"
	"repro/internal/workload"
)

// demoWorkload is the built-in mixed workload: four concurrent SQL queries
// with staggered admissions over one deployment.
const demoWorkload = `-- id: m2n-join
-- alg: Innet-cmg
SELECT S.id, T.id, S.local_time
FROM S, T [windowsize=3 sampleinterval=100]
WHERE S.id < 25 AND hash(S.u) % 2 = 0
AND T.id > 50 AND hash(T.u) % 2 = 0
AND S.x = T.y + 5 AND S.u = T.u;

-- id: perimeter
-- alg: Innet-cmpg
SELECT S.id, T.id
FROM S, T [windowsize=1 sampleinterval=100]
WHERE S.rid = 0 AND T.rid = 3
AND S.cid = T.cid AND S.id % 4 = T.id % 4
AND S.u = T.u;

-- id: sparse-pairs
-- alg: Innet
-- admit: 10
-- sigma-s: 0.1
-- sigma-st: 0.2
SELECT S.id, T.id
FROM S, T [windowsize=3 sampleinterval=100]
WHERE S.id < 10 AND T.id > 80 AND S.x = T.y + 5 AND S.u = T.u;

-- id: at-base
-- alg: Base
-- admit: 20
-- cycles: 50
SELECT S.id, T.id
FROM S, T [windowsize=3 sampleinterval=100]
WHERE S.id < 40 AND T.id > 60 AND S.x = T.y + 5 AND S.u = T.u;
`

func main() {
	var (
		file     = flag.String("f", "", "workload file (default: built-in 4-query demo)")
		topo     = flag.String("topo", "moderate", "topology: sparse|moderate|medium|dense|grid|intel")
		nodes    = flag.Int("nodes", 100, "node count (ignored for intel)")
		trees    = flag.Int("trees", 3, "routing trees in the shared substrate")
		epochs   = flag.Int("epochs", 100, "scheduler epochs (sampling cycles) to run")
		workers  = flag.Int("workers", 1, "goroutines stepping live queries per epoch (1 = sequential, -1 = all cores; output is byte-identical at any setting)")
		adapt    = flag.Bool("adapt", false, "enable section-6 adaptivity: re-estimate selectivities each epoch and migrate join windows on >=33% divergence")
		loss     = flag.Float64("loss", -1, "uniform per-hop loss probability (default: the engine's 5%; 0 = lossless)")
		maxRetry = flag.Int("max-retries", 0, "per-hop retransmission bound for every traffic class (0 = engine default of 3, negative = no retries; a max-retries: directive overrides it)")
		seed     = flag.Uint64("seed", 1, "engine seed")
		baseline = flag.Bool("baseline", true, "also run each query alone and report the sharing win")
		verbose  = flag.Bool("v", false, "stream per-epoch admissions/retirements/results to stderr")
		addr     = flag.String("metrics-addr", "", "serve live introspection endpoints on this address while the run executes (/metricz, /debug/vars, /debug/pprof/)")
		trace    = flag.String("trace", "", "write the epoch trace to this file after the run (Chrome trace_event JSON; a .jsonl suffix selects JSONL)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), `aspen-engine: run a mixed multi-query workload over ONE shared deployment.

Shared infrastructure traffic (routing trees, index dissemination) is
charged once per network; each query's initiation/data/result traffic is
accounted on its own stream. Reports per-query and aggregate bytes/node.

usage: aspen-engine [flags]

flags:
`)
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), `
workload file format (-f): query blocks separated by blank lines. Lines
starting with "#" are skipped, lines starting with "--" are directives,
and the rest is one StreamSQL statement (trailing ";" optional).
Directives:

  -- id: <label>           report label (default q<n>)
  -- alg: <algorithm>      Naive|Base|Yang+07|GHT|DHT|Innet|Innet-cm|
                           Innet-cmg|Innet-cmpg|"Innet-cmpg learn"
                           (default Innet-cmg)
  -- query: <Q0..Q3>       run a built-in Table 2 query instead of SQL
  -- pairs: <n>            Q0 random pair count
  -- cycles: <n>           lifetime in epochs (default: whole run)
  -- admit: <epoch>        admission epoch (default 0)
  -- sigma-s: <f>          producer send probability for S (likewise
                           sigma-t, sigma-st)

deployment churn directives (allowed in any block, or a block of their
own; collected into one engine-wide schedule):

  -- fail: <node> @ <epoch>     fail a node at an epoch
  -- revive: <node> @ <epoch>   revive it again later
  -- churn: <rate> @ <seed>     seeded random churn (per-epoch fail
                                probability; @ <seed> optional)

deployment fault directives (same scoping; build one link-fault plan):

  -- loss: <rate> [@ <seed>]    heterogeneous per-link loss layer
  -- link-fail: <rate> [@ <n>]  per-epoch link failures (revive after n)
  -- partition: [bisect|region <k> @] <from>..<until>
                                cut the field in two for epochs from..until
  -- max-retries: <n>           per-hop retry bound (negative = none;
                                overrides -max-retries)

example block:

  -- id: left-right
  -- alg: Innet-cmg
  -- admit: 10
  SELECT S.id, T.id
  FROM S, T [windowsize=3 sampleinterval=100]
  WHERE S.id < 25 AND T.id > 50 AND S.x = T.y + 5 AND S.u = T.u;

With no -f, a built-in 4-query demo workload runs.
`)
	}
	flag.Parse()

	src := demoWorkload
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		src = string(data)
	}
	jobs, churn, fault, err := parseWorkload(src)
	if err != nil {
		fatal(err)
	}
	if len(jobs) == 0 {
		fatal(fmt.Errorf("workload contains no queries"))
	}

	cfg := aspen.EngineConfig{
		Topology: aspen.TopologyKind(*topo),
		Nodes:    *nodes,
		Trees:    *trees,
		Seed:     *seed,
		Adapt:    *adapt,
		Workers:  *workers,
	}
	if *loss >= 0 {
		cfg.LossProb = loss
	}
	cfg.MaxRetries = *maxRetry
	if fault.maxRetries != 0 {
		cfg.MaxRetries = fault.maxRetries
	}
	if fault.set {
		cfg.Faults = &fault.cfg
	}
	// Seeded churn materializes against the EFFECTIVE deployment size
	// (Intel pins 54 motes regardless of -nodes).
	deployNodes, err := cfg.DeploymentNodes()
	if err != nil {
		fatal(err)
	}
	cfg.Churn = churn.schedule(deployNodes, *epochs)
	cfg.Metrics = *addr != ""
	cfg.Trace = *trace != ""

	// Per-epoch progress goes to STDERR: stdout carries only the final
	// report, so `aspen-engine -v | tee report.txt` and downstream parsers
	// see a clean machine-readable document.
	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}
	e, err := buildEngine(cfg, jobs, progress)
	if err != nil {
		fatal(err)
	}
	if *addr != "" {
		ln, err := serveMetrics(*addr, e)
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metricz (also /debug/vars, /debug/pprof/)\n", ln.Addr())
	}
	rep, err := e.Run(*epochs)
	if err != nil {
		fatal(err)
	}
	if *trace != "" {
		if err := writeTraceFile(e, *trace); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", *trace)
	}

	fmt.Printf("aspen-engine — %d queries over one %s deployment (%d nodes, %d epochs)\n\n",
		len(jobs), *topo, rep.Nodes, rep.Epochs)
	fmt.Printf("%-14s %-11s %-8s %10s %12s %12s %8s %8s\n",
		"query", "algorithm", "state", "live", "traffic KB", "KB/node", "results", "delay")
	for _, q := range rep.Queries {
		live := fmt.Sprintf("%d..%d", q.AdmitEpoch, q.RetireEpoch)
		if q.AdmitEpoch < 0 {
			live = "-"
		}
		fmt.Printf("%-14s %-11s %-8s %10s %12.1f %12.3f %8d %8.2f\n",
			q.ID, q.Algorithm, q.State, live,
			float64(q.TotalBytes)/1024, q.BytesPerNode/1024, q.Results, q.MeanDelay)
	}
	fmt.Printf("\nshared infrastructure  %8.1f KB   (routing trees + index dissemination + repair, charged once)\n",
		float64(rep.SharedBytes)/1024)
	fmt.Printf("per-query traffic      %8.1f KB\n", float64(rep.QueryBytes)/1024)
	fmt.Printf("aggregate              %8.1f KB   (%.3f KB/node, %d results)\n",
		float64(rep.AggregateBytes)/1024, rep.AggregateBytesPerNode/1024, rep.Results)
	if rep.FailedNodes > 0 {
		fmt.Printf("node churn             %d failed, %d paths repaired in-network, %d base fallbacks, %d trees rebuilt\n",
			rep.FailedNodes, rep.PathsRepaired, rep.BaseFallbacks, rep.TreesRebuilt)
	}
	if rep.ResultsLost > 0 || rep.LinkRerouted > 0 || rep.LinkFallbacks > 0 || rep.PartitionEpochs > 0 {
		fmt.Printf("link faults            %d result(s) lost, %d path(s) rerouted, %d base fallback(s), %d partition epoch(s)\n",
			rep.ResultsLost, rep.LinkRerouted, rep.LinkFallbacks, rep.PartitionEpochs)
	}
	if *adapt {
		fmt.Printf("adaptivity             %d window migration(s), %d aborted to base\n",
			rep.Migrations, rep.MigrationsAborted)
	}

	if *baseline {
		// Baselines measure traffic only: no per-run metrics or tracing.
		cfgBase := cfg
		cfgBase.Metrics, cfgBase.Trace = false, false
		var sum int64
		for i, job := range jobs {
			one, err := runAll(cfgBase, jobs[i:i+1], *epochs, nil)
			if err != nil {
				fatal(fmt.Errorf("baseline %s: %w", job.ID, err))
			}
			sum += one.AggregateBytes
		}
		fmt.Printf("\nunshared baseline      %8.1f KB   (each query on its own deployment)\n",
			float64(sum)/1024)
		fmt.Printf("sharing saved          %8.1f KB   (%.1f%%)\n",
			float64(sum-rep.AggregateBytes)/1024,
			100*(1-float64(rep.AggregateBytes)/float64(sum)))
	}
}

// buildEngine constructs an engine and submits jobs. When progress is
// non-nil, per-epoch admissions/failures/results/retirements stream to it
// (main passes os.Stderr so stdout stays a clean report).
func buildEngine(cfg aspen.EngineConfig, jobs []aspen.QueryJob, progress io.Writer) (*aspen.Engine, error) {
	e, err := aspen.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	for _, job := range jobs {
		if _, err := e.Submit(job); err != nil {
			return nil, err
		}
	}
	if progress != nil {
		e.OnEpoch(func(s aspen.EpochStats) {
			for _, id := range s.Admitted {
				fmt.Fprintf(progress, "epoch %4d  + %s admitted (%d live)\n", s.Epoch, id, s.Live)
			}
			for _, id := range s.Failed {
				fmt.Fprintf(progress, "epoch %4d  ! node %d failed\n", s.Epoch, id)
			}
			if s.Repaired > 0 || s.Fallbacks > 0 {
				fmt.Fprintf(progress, "epoch %4d    recovery: %d path(s) repaired, %d base fallback(s)\n",
					s.Epoch, s.Repaired, s.Fallbacks)
			}
			if s.Migrations > 0 || s.MigrationsAborted > 0 {
				fmt.Fprintf(progress, "epoch %4d    adaptivity: %d window migration(s), %d aborted to base\n",
					s.Epoch, s.Migrations, s.MigrationsAborted)
			}
			if s.LinkRerouted > 0 || s.LinkFallbacks > 0 {
				fmt.Fprintf(progress, "epoch %4d    link faults: %d path(s) rerouted, %d base fallback(s)\n",
					s.Epoch, s.LinkRerouted, s.LinkFallbacks)
			}
			if s.ResultsLost > 0 {
				fmt.Fprintf(progress, "epoch %4d    %d result(s) lost to link faults\n", s.Epoch, s.ResultsLost)
			}
			ids := make([]string, 0, len(s.NewResults))
			for id := range s.NewResults {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			for _, id := range ids {
				fmt.Fprintf(progress, "epoch %4d    %s delivered %d result(s)\n", s.Epoch, id, s.NewResults[id])
			}
			for _, id := range s.Retired {
				fmt.Fprintf(progress, "epoch %4d  - %s retired\n", s.Epoch, id)
			}
		})
	}
	return e, nil
}

// runAll builds an engine, submits jobs, and runs it.
func runAll(cfg aspen.EngineConfig, jobs []aspen.QueryJob, epochs int, progress io.Writer) (*aspen.EngineReport, error) {
	e, err := buildEngine(cfg, jobs, progress)
	if err != nil {
		return nil, err
	}
	return e.Run(epochs)
}

// writeTraceFile exports the engine's epoch trace: Chrome trace_event JSON
// by default, JSONL when the path ends in .jsonl.
func writeTraceFile(e *aspen.Engine, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = e.WriteTraceJSONL(f)
	} else {
		err = e.WriteTrace(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// splitBlocks cuts src at blank separator lines (lines empty after
// trimming, so a stray space or tab on a "blank" line still separates).
func splitBlocks(src string) []string {
	var blocks []string
	var cur []string
	flush := func() {
		if len(cur) > 0 {
			blocks = append(blocks, strings.Join(cur, "\n"))
			cur = cur[:0]
		}
	}
	for _, line := range strings.Split(strings.ReplaceAll(src, "\r\n", "\n"), "\n") {
		if strings.TrimSpace(line) == "" {
			flush()
			continue
		}
		cur = append(cur, line)
	}
	flush()
	return blocks
}

// churnSpec collects the deployment-level churn directives of a workload
// file: explicit fail/revive events plus seeded random-churn requests,
// which need the run's node count and horizon to materialize.
type churnSpec struct {
	events []aspen.ChurnEvent
	seeded []seededChurn
}

type seededChurn struct {
	rate float64
	seed uint64
}

// schedule materializes the full churn schedule for a deployment of
// `nodes` nodes run for `epochs` epochs.
func (c churnSpec) schedule(nodes, epochs int) []aspen.ChurnEvent {
	out := append([]aspen.ChurnEvent(nil), c.events...)
	for _, s := range c.seeded {
		out = append(out, aspen.SeededChurn(s.seed, nodes, epochs, s.rate, 0)...)
	}
	return out
}

// faultSpec collects the deployment-level fault directives of a workload
// file: the link-fault plan plus a retry-bound override.
type faultSpec struct {
	cfg aspen.FaultConfig
	// maxRetries mirrors the max-retries directive (0 = unset).
	maxRetries int
	// set reports whether any fault-plan directive appeared.
	set bool
}

// parseWorkload splits src into blank-line-separated blocks and parses
// each into a QueryJob, collecting deployment-level churn and fault
// directives (which may form blocks of their own) into the returned specs.
func parseWorkload(src string) ([]aspen.QueryJob, churnSpec, faultSpec, error) {
	var jobs []aspen.QueryJob
	var churn churnSpec
	var fault faultSpec
	for bi, block := range splitBlocks(src) {
		var job aspen.QueryJob
		var sqlLines []string
		deployDirectives := 0
		for _, line := range strings.Split(block, "\n") {
			trimmed := strings.TrimSpace(line)
			if strings.HasPrefix(trimmed, "#") {
				continue
			}
			if strings.HasPrefix(trimmed, "--") {
				n, err := applyDirective(&job, &churn, &fault, strings.TrimSpace(strings.TrimPrefix(trimmed, "--")))
				if err != nil {
					return nil, churnSpec{}, faultSpec{}, fmt.Errorf("block %d: %w", bi+1, err)
				}
				deployDirectives += n
				continue
			}
			if trimmed != "" {
				sqlLines = append(sqlLines, trimmed)
			}
		}
		sql := strings.TrimSuffix(strings.Join(sqlLines, "\n"), ";")
		if sql != "" && job.Query != "" {
			return nil, churnSpec{}, faultSpec{}, fmt.Errorf("block %d: has both SQL text and a 'query:' directive", bi+1)
		}
		job.SQL = sql
		if job.SQL == "" && job.Query == "" {
			if deployDirectives > 0 && job == (aspen.QueryJob{}) {
				continue // a pure churn/fault block describes the deployment, not a query
			}
			return nil, churnSpec{}, faultSpec{}, fmt.Errorf("block %d: no SQL statement and no 'query:' directive", bi+1)
		}
		jobs = append(jobs, job)
	}
	if err := fault.cfg.Validate(); err != nil {
		return nil, churnSpec{}, faultSpec{}, err
	}
	return jobs, churn, fault, nil
}

// parsePartition parses a partition directive value: "<from>..<until>"
// or "bisect @ <from>..<until>" splits the field at the median x;
// "region <k> @ <from>..<until>" severs region band k (0..3).
func parsePartition(value string) (aspen.Partition, error) {
	p := aspen.Partition{Kind: aspen.Bisect}
	window := value
	if kindStr, winStr, hasKind := strings.Cut(value, "@"); hasKind {
		window = strings.TrimSpace(winStr)
		kind := strings.Fields(strings.ToLower(strings.TrimSpace(kindStr)))
		switch {
		case len(kind) == 1 && kind[0] == "bisect":
		case len(kind) == 2 && kind[0] == "region":
			n, err := strconv.Atoi(kind[1])
			if err != nil || n < 0 || n > 3 {
				return p, fmt.Errorf("partition region: want 0..3, got %q", kind[1])
			}
			p.Kind, p.Region = aspen.Region, n
		default:
			return p, fmt.Errorf("partition: want \"bisect\" or \"region <0..3>\", got %q", strings.TrimSpace(kindStr))
		}
	}
	fromStr, untilStr, ok := strings.Cut(window, "..")
	if !ok {
		return p, fmt.Errorf("partition window: want \"<from>..<until>\", got %q", window)
	}
	var err error
	if p.From, err = strconv.Atoi(strings.TrimSpace(fromStr)); err != nil {
		return p, fmt.Errorf("partition from: %w", err)
	}
	if p.Until, err = strconv.Atoi(strings.TrimSpace(untilStr)); err != nil {
		return p, fmt.Errorf("partition until: %w", err)
	}
	return p, nil
}

// parseNodeAtEpoch parses "<node> @ <epoch>" (spaces optional).
func parseNodeAtEpoch(value string) (node, epoch int, err error) {
	left, right, ok := strings.Cut(value, "@")
	if !ok {
		return 0, 0, fmt.Errorf("want \"<node> @ <epoch>\", got %q", value)
	}
	if node, err = strconv.Atoi(strings.TrimSpace(left)); err != nil {
		return 0, 0, fmt.Errorf("node: %w", err)
	}
	if epoch, err = strconv.Atoi(strings.TrimSpace(right)); err != nil {
		return 0, 0, fmt.Errorf("epoch: %w", err)
	}
	return node, epoch, nil
}

// applyDirective parses one "key: value" directive into job, churn or
// fault, reporting how many deployment-level directives it consumed (0 or
// 1).
func applyDirective(job *aspen.QueryJob, churn *churnSpec, fault *faultSpec, d string) (int, error) {
	key, value, ok := strings.Cut(d, ":")
	if !ok {
		// A bare comment, e.g. "-- the fast half"; ignore.
		return 0, nil
	}
	key = strings.TrimSpace(strings.ToLower(key))
	value = strings.TrimSpace(value)
	switch key {
	case "loss":
		// "<link-loss> [@ <seed>]": heterogeneous per-link loss layer.
		rateStr, seedStr, hasSeed := strings.Cut(value, "@")
		rate, err := strconv.ParseFloat(strings.TrimSpace(rateStr), 64)
		if err != nil {
			return 0, fmt.Errorf("loss rate: %w", err)
		}
		fault.cfg.LinkLoss = rate
		if hasSeed {
			if fault.cfg.Seed, err = strconv.ParseUint(strings.TrimSpace(seedStr), 10, 64); err != nil {
				return 0, fmt.Errorf("loss seed: %w", err)
			}
		}
		fault.set = true
		return 1, nil
	case "link-fail":
		// "<rate> [@ <revive-after>]": transient per-epoch link failures.
		rateStr, revStr, hasRev := strings.Cut(value, "@")
		rate, err := strconv.ParseFloat(strings.TrimSpace(rateStr), 64)
		if err != nil {
			return 0, fmt.Errorf("link-fail rate: %w", err)
		}
		fault.cfg.LinkFailRate = rate
		if hasRev {
			if fault.cfg.LinkReviveAfter, err = strconv.Atoi(strings.TrimSpace(revStr)); err != nil {
				return 0, fmt.Errorf("link-fail revive: %w", err)
			}
		}
		fault.set = true
		return 1, nil
	case "partition":
		p, err := parsePartition(value)
		if err != nil {
			return 0, err
		}
		fault.cfg.Partitions = append(fault.cfg.Partitions, p)
		fault.set = true
		return 1, nil
	case "max-retries":
		n, err := strconv.Atoi(value)
		if err != nil {
			return 0, fmt.Errorf("max-retries: %w", err)
		}
		fault.maxRetries = n
		return 1, nil
	case "fail", "revive":
		node, epoch, err := parseNodeAtEpoch(value)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", key, err)
		}
		churn.events = append(churn.events, aspen.ChurnEvent{
			Epoch: epoch, Node: aspen.NodeID(node), Revive: key == "revive",
		})
		return 1, nil
	case "churn":
		// "<rate> @ <seed>"; seed optional (default 1).
		rateStr, seedStr, hasSeed := strings.Cut(value, "@")
		rate, err := strconv.ParseFloat(strings.TrimSpace(rateStr), 64)
		if err != nil {
			return 0, fmt.Errorf("churn rate: %w", err)
		}
		sc := seededChurn{rate: rate, seed: 1}
		if hasSeed {
			if sc.seed, err = strconv.ParseUint(strings.TrimSpace(seedStr), 10, 64); err != nil {
				return 0, fmt.Errorf("churn seed: %w", err)
			}
		}
		churn.seeded = append(churn.seeded, sc)
		return 1, nil
	}
	return 0, applyQueryDirective(job, key, value)
}

// applyQueryDirective handles the per-query directives.
func applyQueryDirective(job *aspen.QueryJob, key, value string) error {
	switch key {
	case "id":
		job.ID = value
	case "alg", "algorithm":
		job.Algorithm = aspen.Algorithm(value)
	case "query":
		job.Query = aspen.Query(value)
	case "cycles":
		n, err := strconv.Atoi(value)
		if err != nil {
			return fmt.Errorf("cycles: %w", err)
		}
		job.Cycles = n
	case "admit":
		n, err := strconv.Atoi(value)
		if err != nil {
			return fmt.Errorf("admit: %w", err)
		}
		job.AdmitAt = n
	case "pairs":
		n, err := strconv.Atoi(value)
		if err != nil {
			return fmt.Errorf("pairs: %w", err)
		}
		job.Pairs = n
	case "sigma-s", "sigma-t", "sigma-st":
		f, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		if job.Rates == (aspen.Rates{}) {
			job.Rates = workload.DefaultRates
		}
		switch key {
		case "sigma-s":
			job.Rates.SigmaS = f
		case "sigma-t":
			job.Rates.SigmaT = f
		default:
			job.Rates.SigmaST = f
		}
	default:
		return fmt.Errorf("unknown directive %q", key)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
