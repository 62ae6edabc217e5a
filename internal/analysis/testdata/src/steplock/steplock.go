// Package join is a golden-test fixture for the steplock analyzer: a
// stepper whose Step method calls the sequential-only APIs the Stepper
// concurrency contract confines to Start and the engine's sequential
// phases, next to the reads that ARE safe, a closure (the check walks
// into function literals), the //aspen:stepsafe escape hatch, and a
// Start method where the same calls are legal.
package join

import (
	"repro/internal/dht"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// badStepper violates the contract from inside Step.
type badStepper struct {
	rep  *routing.Repairer
	ring *dht.Ring
	live *topology.Liveness
	pc   *topology.ParentCache
	src  *rng.Source
	net  *sim.Network
}

// Start may mutate shared state: it runs sequentially before stepping.
func (b *badStepper) Start() {
	b.rep.Reset()
	b.ring.ObserveFailures(b.live)
	b.pc.Invalidate()
}

// Step runs on parallel workers; every shared mutation below is a race.
func (b *badStepper) Step(cycle int) {
	b.rep.Reset()                   // want `routing.Repairer.Reset called inside badStepper.Step`
	b.ring.Route(0, 1)              // want `dht.Ring.Route called inside badStepper.Step`
	b.live.Fail(topology.NodeID(0)) // want `topology.Liveness.Fail called inside badStepper.Step`
	b.pc.Invalidate()               // want `topology.ParentCache.Invalidate called inside badStepper.Step`
	_ = b.src.Uint64()              // want `rng.Source.Uint64 called inside badStepper.Step`
	b.net.Fail(topology.NodeID(0))  // want `sim.Network.Fail called inside badStepper.Step`

	// Shared reads are fine: the contract forbids mutation, not lookup.
	_ = b.live.Alive(topology.NodeID(cycle))
	_ = b.ring.HomeNode(int32(cycle))
	_ = b.net.Alive(topology.NodeID(cycle))

	// The check walks into closures declared inside Step.
	defer func() {
		b.live.Revive(topology.NodeID(0)) // want `topology.Liveness.Revive called inside badStepper.Step`
	}()

	// Package-level tree maintenance is barrier-only too.
	routing.PatchTreeLive(nil, nil, nil, nil, nil) // want `routing.PatchTreeLive called inside badStepper.Step`
	routing.RebuildTreeLive(nil, nil, 0, nil, nil) // want `routing.RebuildTreeLive called inside badStepper.Step`
	routing.BuildTree(nil, 0, nil)                 // no-liveness build is not in the forbidden set
	routing.RebuildTreeLive(nil, nil, 0, nil, nil) //aspen:stepsafe fixture-only audit trail

	// Audited exception, recorded with the hatch.
	b.ring.ObserveFailures(b.live) //aspen:stepsafe fixture-only audit trail
}
