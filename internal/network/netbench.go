package network

import (
	"highradix/internal/flit"
	"highradix/internal/traffic"
)

// Hooks observes a network run at its terminal boundary. Implemented
// structurally by check.NewNetAuditor; the network side only defines
// the contract. EndCycle runs after every Step with the network's
// in-flight count and may end the run by returning an error.
type Hooks interface {
	Injected(now int64, f *flit.Flit)
	Delivered(now int64, f *flit.Flit)
	EndCycle(now int64, inFlight int) error
}

// Options parameterizes one network simulation run (Figure 19 uses
// uniform random traffic and single-flit packets).
type Options struct {
	// Net is the Clos configuration, used when Topo is nil.
	Net Config
	// Topo, when non-nil, selects the topology directly (NewRing,
	// NewTorus, or a custom family) and Net is ignored.
	Topo Topology
	// Load is offered load as a fraction of terminal channel capacity
	// (one flit per SerCycles per terminal).
	Load float64
	// PktLen is the packet length in flits (default 1, the paper's
	// Figure 19 configuration). Longer packets exercise wormhole
	// link-VC ownership across the network.
	PktLen int
	// WarmupCycles, MeasureCycles, DrainCycles size the phases; zero
	// takes defaults. SatLatency flags saturation.
	WarmupCycles  int64
	MeasureCycles int64
	DrainCycles   int64
	SatLatency    float64
	// Seed seeds the run: per-terminal generation streams and the
	// per-packet routing hash all derive from it.
	Seed uint64
	// Pattern supplies destination terminals; nil means uniform random.
	Pattern traffic.Pattern
	// Hooks, when non-nil, observes every injection and delivery and
	// audits each cycle. Arming hooks also stops generation at the end
	// of the measurement window and extends the run until every
	// generated flit has drained, so end-to-end conservation can be
	// verified; a non-nil EndCycle error aborts the run.
	Hooks Hooks
	// NoFastForward forces dense per-cycle stepping: the run neither
	// skips quiescent network steps nor jumps time across provably idle
	// stretches of a hooked drain. Fast-forwarding is cycle-exact
	// (TestNetFastForwardTwin asserts byte-identical results), so this
	// exists for A/B verification, not correctness.
	NoFastForward bool
	// Injection selects the terminal source implementation. The
	// default, traffic.InjPerCycle, draws one Bernoulli per terminal
	// per cycle, which forbids skipping any generation-live cycle.
	// traffic.InjGap samples each terminal's next injection cycle
	// directly and schedules terminals on a sim.Wheel, so the run
	// advances straight to the next event across idle stretches:
	// O(events) at low load. Gap runs are byte-identical to their own
	// dense twins (TestNetGapFastForwardTwin) and
	// distribution-equivalent, not byte-identical, to per-cycle runs.
	Injection traffic.InjMode
}

// WithDefaults fills the defaulted phase lengths and packet size.
func (o Options) WithDefaults() Options {
	if o.PktLen == 0 {
		o.PktLen = 1
	}
	if o.WarmupCycles == 0 {
		o.WarmupCycles = 2000
	}
	if o.MeasureCycles == 0 {
		o.MeasureCycles = 4000
	}
	if o.DrainCycles == 0 {
		o.DrainCycles = 4 * (o.WarmupCycles + o.MeasureCycles)
	}
	if o.SatLatency == 0 {
		o.SatLatency = 2000
	}
	return o
}

// Topology resolves the run's topology: Topo when set, else the Clos
// described by Net.
func (o Options) Topology() (Topology, error) {
	if o.Topo != nil {
		return o.Topo, nil
	}
	return NewClos(o.Net)
}

// RouteSeed derives the routing-hash seed every engine of this run
// (one per shard) must share.
func (o Options) RouteSeed() uint64 { return o.Seed ^ 0x632be59bd9b4e019 }

// SourceOpts derives the terminal-source parameters for this run over
// the given topology.
func (o Options) SourceOpts(topo Topology) SourceOpts {
	pattern := o.Pattern
	if pattern == nil {
		pattern = traffic.NewUniform(topo.Terminals())
	}
	return SourceOpts{
		Seed:      o.Seed,
		Rate:      o.Load / float64(topo.SerCycles()*o.PktLen),
		PktLen:    o.PktLen,
		Pattern:   pattern,
		Injection: o.Injection,
	}
}

// Result mirrors testbench.Result at network scale.
type Result struct {
	Load       float64
	AvgLatency float64
	P99        float64
	Throughput float64
	Packets    int64
	Saturated  bool
	Cycles     int64
	AvgHops    float64
	// DrainUsed is how many cycles past the measurement window the run
	// actually needed before exiting (0 when it exited at the window's
	// edge; DrainCycles when the drain bound was exhausted).
	DrainUsed int64
}
