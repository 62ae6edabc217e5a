package aspen

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/workload"
)

// Workload is a parsed workload file: its query blocks plus the
// deployment directives — explicit fail/revive events, the link-fault plan
// and seeded churn — that Config installs on an EngineConfig.
type Workload struct {
	// Jobs are the file's query blocks, in file order.
	Jobs []QueryJob
	// churn holds the explicit fail/revive events.
	churn []ChurnEvent
	// faults is the link-fault plan; nil when no fault directive appeared.
	faults *FaultConfig
	// seeded holds the "churn:" requests, which need the deployment size
	// and the run's horizon to become events.
	seeded []churnRate
}

type churnRate struct {
	rate float64
	seed uint64
}

// ParseWorkload parses a workload file: blank-line-separated blocks, each
// one StreamSQL statement (or a "query:" directive) with "-- key: value"
// directives, plus deployment-level churn and fault directives that may
// also form blocks of their own. The format is documented in one place,
// the usage text of cmd/aspen-engine (aspen-engine -h).
func ParseWorkload(src string) (Workload, error) {
	var w Workload
	var block []string
	blocks := 0
	// A line blank after trimming (stray spaces, tabs or a CRLF's "\r")
	// ends a block; the appended "" ends the last one.
	for _, line := range append(strings.Split(src, "\n"), "") {
		if line = strings.TrimSpace(line); line != "" {
			block = append(block, line)
			continue
		}
		if len(block) > 0 {
			blocks++
			if err := w.parseBlock(block); err != nil {
				return Workload{}, fmt.Errorf("block %d: %w", blocks, err)
			}
			block = block[:0]
		}
	}
	if w.faults != nil {
		if err := w.faults.Validate(); err != nil {
			return Workload{}, err
		}
	}
	return w, nil
}

// Config returns base with the workload's deployment installed: its fault
// plan, when it has one, replaces base.Faults, and its churn — the explicit
// events, then each seeded request expanded over the deployment's
// effective size (Intel pins 54 motes whatever Nodes says) for epochs
// epochs — is appended to base.Churn.
func (w Workload) Config(base EngineConfig, epochs int) (EngineConfig, error) {
	kind, err := base.Topology.kind()
	if err != nil {
		return EngineConfig{}, err
	}
	cfg := base
	if w.faults != nil {
		cfg.Faults = w.faults
	}
	cfg.Churn = append(append([]ChurnEvent(nil), base.Churn...), w.churn...)
	nodes := engine.EffectiveNodes(kind, base.Nodes)
	for _, s := range w.seeded {
		cfg.Churn = append(cfg.Churn, SeededChurn(s.seed, nodes, epochs, s.rate, 0)...)
	}
	return cfg, nil
}

// parseBlock parses one block's trimmed lines into a QueryJob appended to
// w.Jobs, and its deployment directives into w. A block of deployment
// directives alone describes the deployment, not a query.
func (w *Workload) parseBlock(block []string) error {
	var job QueryJob
	var sqlLines []string
	deploy, sigma := false, false
	for _, line := range block {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "--") {
			sqlLines = append(sqlLines, line)
			continue
		}
		key, value, ok := strings.Cut(strings.TrimPrefix(line, "--"), ":")
		if !ok {
			continue // a bare comment, e.g. "-- the fast half"
		}
		key, value = strings.TrimSpace(strings.ToLower(key)), strings.TrimSpace(value)
		isDeploy, err := w.applyDirective(key, value)
		if err != nil {
			return err
		}
		if isDeploy {
			deploy = true
			continue
		}
		// The first sigma directive starts from the default rates, so an
		// unnamed selectivity keeps its default.
		if strings.HasPrefix(key, "sigma-") && !sigma {
			job.Rates, sigma = workload.DefaultRates, true
		}
		if err := applyQueryDirective(&job, key, value); err != nil {
			return err
		}
	}
	if sigma && job.Rates == (Rates{}) {
		return fmt.Errorf("sigma-s, sigma-t and sigma-st are all 0, and all-zero rates read as the default rates")
	}
	job.SQL = strings.TrimSuffix(strings.Join(sqlLines, "\n"), ";")
	if job.SQL != "" && job.Query != "" {
		return fmt.Errorf("has both SQL text and a 'query:' directive")
	}
	if job.SQL == "" && job.Query == "" {
		if deploy && job == (QueryJob{}) {
			return nil
		}
		return fmt.Errorf("no SQL statement and no 'query:' directive")
	}
	w.Jobs = append(w.Jobs, job)
	return nil
}

// parsePartition parses a partition directive value: "<from>..<until>"
// or "bisect @ <from>..<until>" splits the field at the median x;
// "region <k> @ <from>..<until>" severs region band k (0..3).
func parsePartition(value string) (Partition, error) {
	p := Partition{Kind: Bisect}
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
			p.Kind, p.Region = Region, n
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
	if epoch < 0 {
		return 0, 0, fmt.Errorf("epoch %d is negative", epoch)
	}
	return node, epoch, nil
}

// plan returns the workload's fault plan, creating it on the first fault
// directive.
func (w *Workload) plan() *FaultConfig {
	if w.faults == nil {
		w.faults = &FaultConfig{}
	}
	return w.faults
}

// applyDirective applies one deployment-level churn or fault directive to
// w, reporting false for a key that is not one.
func (w *Workload) applyDirective(key, value string) (bool, error) {
	switch key {
	case "loss":
		// "<link-loss> [@ <seed>]": heterogeneous per-link loss layer.
		rateStr, seedStr, hasSeed := strings.Cut(value, "@")
		rate, err := strconv.ParseFloat(strings.TrimSpace(rateStr), 64)
		if err != nil {
			return false, fmt.Errorf("loss rate: %w", err)
		}
		w.plan().LinkLoss = rate
		if hasSeed {
			if w.faults.Seed, err = strconv.ParseUint(strings.TrimSpace(seedStr), 10, 64); err != nil {
				return false, fmt.Errorf("loss seed: %w", err)
			}
		}
	case "link-fail":
		// "<rate> [@ <revive-after>]": transient per-epoch link failures.
		rateStr, revStr, hasRev := strings.Cut(value, "@")
		rate, err := strconv.ParseFloat(strings.TrimSpace(rateStr), 64)
		if err != nil {
			return false, fmt.Errorf("link-fail rate: %w", err)
		}
		w.plan().LinkFailRate = rate
		if hasRev {
			if w.faults.LinkReviveAfter, err = strconv.Atoi(strings.TrimSpace(revStr)); err != nil {
				return false, fmt.Errorf("link-fail revive: %w", err)
			}
		}
	case "partition":
		p, err := parsePartition(value)
		if err != nil {
			return false, err
		}
		f := w.plan()
		f.Partitions = append(f.Partitions, p)
	case "fail", "revive":
		node, epoch, err := parseNodeAtEpoch(value)
		if err != nil {
			return false, fmt.Errorf("%s: %w", key, err)
		}
		w.churn = append(w.churn, ChurnEvent{Epoch: epoch, Node: NodeID(node), Revive: key == "revive"})
	case "churn":
		// "<rate> @ <seed>"; seed optional (default 1).
		rateStr, seedStr, hasSeed := strings.Cut(value, "@")
		rate, err := strconv.ParseFloat(strings.TrimSpace(rateStr), 64)
		if err != nil {
			return false, fmt.Errorf("churn rate: %w", err)
		}
		if !(rate >= 0 && rate <= 1) {
			return false, fmt.Errorf("churn rate %v is not a probability in [0, 1]", rate)
		}
		c := churnRate{rate: rate, seed: 1}
		if hasSeed {
			if c.seed, err = strconv.ParseUint(strings.TrimSpace(seedStr), 10, 64); err != nil {
				return false, fmt.Errorf("churn seed: %w", err)
			}
		}
		w.seeded = append(w.seeded, c)
	default:
		return false, nil
	}
	return true, nil
}

// applyQueryDirective handles the per-query directives.
func applyQueryDirective(job *QueryJob, key, value string) error {
	switch key {
	case "id":
		job.ID = value
	case "alg", "algorithm":
		job.Algorithm = Algorithm(value)
	case "query":
		job.Query = Query(value)
	case "cycles", "admit", "pairs":
		n, err := strconv.Atoi(value)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		switch key {
		case "cycles":
			job.Cycles = n
		case "admit":
			job.AdmitAt = n
		default:
			job.Pairs = n
		}
	case "sigma-s", "sigma-t", "sigma-st":
		f, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
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
