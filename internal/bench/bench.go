// Package bench is the behaviour-drift gate. Its test, TestScenarios,
// drives a registry of named end-to-end scenarios (engine concurrency
// levels, query turnover, churn, link faults, adaptivity, experiment
// sweeps, algorithm head-to-heads, the raw Transfer path) from fixed seeds
// and holds each one's simulated traffic and named counters against a
// golden row in testdata/scenarios.golden, the live heap of the two
// deployment-scale scenarios and of the turnover scenario against their
// ceilings, and each parallel "-w4" twin against its sequential sibling:
//
//	go test ./internal/bench                              # the gate
//	go test ./internal/bench -run 'TestScenarios/engine-16'  # a subset
//	go test ./internal/bench -run TestScenarios -update   # re-record
//
// Wall-clock, allocation and heap *measurements* belong to benchmark/, not
// here: this package answers one question — did simulated behaviour move.
// Its one exported value is the engine scenarios' query pool, which other
// packages' tests and the root benchmarks share.
package bench

// EngineSQL is the fixed query pool the engine scenarios draw from
// round-robin. The root package's `go test -bench Engine` benchmarks read
// this same variable, so both step the same workload.
var EngineSQL = []string{
	`SELECT S.id, T.id
FROM S, T [windowsize=3 sampleinterval=100]
WHERE S.id < 25 AND T.id > 50 AND S.x = T.y + 5 AND S.u = T.u`,
	`SELECT S.id, T.id
FROM S, T [windowsize=1 sampleinterval=100]
WHERE S.rid = 0 AND T.rid = 3 AND S.cid = T.cid AND S.id % 4 = T.id % 4 AND S.u = T.u`,
	`SELECT S.id, T.id
FROM S, T [windowsize=3 sampleinterval=100]
WHERE S.id < 10 AND T.id > 80 AND S.x = T.y + 5 AND S.u = T.u`,
	`SELECT S.id, T.id
FROM S, T [windowsize=3 sampleinterval=100]
WHERE S.id < 40 AND T.id > 60 AND S.x = T.y + 5 AND S.u = T.u`,
}
