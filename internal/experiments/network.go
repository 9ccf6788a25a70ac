package experiments

import (
	"highradix/internal/network"
	"highradix/internal/network/shard"
	"highradix/internal/stats"
	"highradix/internal/sweep"
)

// runNet runs one network point at the scale's worker count, behind
// the scale's cache, under a pool slot. The cache key deliberately
// omits the worker count: runs of one configuration are byte-identical
// at every count, so they share an entry.
func (s Scale) runNet(p *sweep.Pool, o network.Options) (network.Result, error) {
	key, ok := o.CacheKey()
	return sweep.RunCached(p, s.Cache, key, ok, network.EncodeResult, network.DecodeResult,
		func() (network.Result, error) {
			return shard.Run(shard.Options{Options: o, Workers: s.NetWorkers})
		})
}

// Fig19 reproduces Figure 19: latency versus offered load for a
// 4096-node Clos network built from radix-64 routers (three stages,
// 64^2 terminals) and from radix-16 routers (five stages, 16^3
// terminals), with oblivious routing (random middle stages) and uniform
// random traffic. At Quick scale the network is shrunk to 256 nodes
// (16^2 vs 4^4), preserving the high-vs-low-radix stage contrast while
// keeping test and benchmark runtimes reasonable. Network runs are the
// most expensive points in the repository, so both networks and all
// their per-load points go through the sweep pool.
func Fig19(s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Figure 19: 4096-node Clos, radix-64 (3 stages) vs radix-16 (5 stages)",
		XLabel: "offered load",
		YLabel: "latency (cycles)",
	}
	type netCase struct {
		name string
		cfg  network.Config
	}
	var cases []netCase
	if s.FullNetwork {
		cases = []netCase{
			{"radix-64 (3 stages)", network.Config{Radix: 64, Digits: 2}},
			{"radix-16 (5 stages)", network.Config{Radix: 16, Digits: 3}},
		}
	} else {
		t.Title = "Figure 19 (reduced): 256-node Clos, radix-16 (3 stages) vs radix-4 (7 stages)"
		cases = []netCase{
			{"radix-16 (3 stages)", network.Config{Radix: 16, Digits: 2}},
			{"radix-4 (7 stages)", network.Config{Radix: 4, Digits: 4}},
		}
	}
	p := s.pool()
	type caseOut struct {
		series *stats.Series
		zero   network.Result
	}
	outs, err := sweep.Gather(cases, func(c netCase) (caseOut, error) {
		base := network.Options{
			Net:           c.cfg,
			WarmupCycles:  s.NetWarmup,
			MeasureCycles: s.NetMeasure,
			Seed:          s.Seed,
			NoFastForward: s.NoFastForward,
			Injection:     s.Injection,
		}
		series, err := sweep.Curve(p, c.name, s.NetLoads, func(load float64) (sweep.Point, error) {
			o := base
			o.Load = load
			res, err := s.runNet(p, o)
			if err != nil {
				return sweep.Point{}, err
			}
			return sweep.Point{Y: res.AvgLatency, Saturated: res.Saturated}, nil
		})
		if err != nil {
			return caseOut{}, err
		}
		zeroOpts := base
		zeroOpts.Load = 0.05
		zero, err := s.runNet(p, zeroOpts)
		if err != nil {
			return caseOut{}, err
		}
		return caseOut{series: series, zero: zero}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, out := range outs {
		t.AddSeries(out.series)
		t.AddScalar("zero-load latency "+cases[i].name, out.zero.AvgLatency, "cycles")
		t.AddScalar("avg hops "+cases[i].name, out.zero.AvgHops, "router traversals")
	}
	t.AddNote("paper: the high-radix network has lower zero-load latency network-wide despite the higher per-router latency, because hop count falls")
	return t, nil
}

// FigTopo is an extension beyond the paper: latency versus offered load
// for the direct topologies the generalized engine supports — a 16-node
// bidirectional ring and a 4x4 torus, both with dateline VC deadlock
// avoidance — contrasted against a Clos of the same terminal count. It
// shows the classic result the paper argues from: at equal terminal
// count, the low-degree direct networks pay more hops and saturate far
// earlier than the multistage network (the ring's uniform-traffic
// capacity is ~8/N of a terminal's bandwidth).
func FigTopo(s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Topology extension: 16-node ring vs 4x4 torus vs 16-node Clos",
		XLabel: "offered load",
		YLabel: "latency (cycles)",
	}
	ring, err := network.NewRing(network.RingConfig{Routers: 16})
	if err != nil {
		return nil, err
	}
	torus, err := network.NewTorus(network.TorusConfig{X: 4, Y: 4})
	if err != nil {
		return nil, err
	}
	clos, err := network.NewClos(network.Config{Radix: 4, Digits: 2})
	if err != nil {
		return nil, err
	}
	cases := []struct {
		name string
		topo network.Topology
	}{
		{"ring-16", ring},
		{"torus-4x4", torus},
		{"clos-16 (radix-4)", clos},
	}
	p := s.pool()
	type caseOut struct {
		series *stats.Series
		zero   network.Result
	}
	outs, err := sweep.Gather(cases, func(c struct {
		name string
		topo network.Topology
	}) (caseOut, error) {
		base := network.Options{
			Topo:          c.topo,
			WarmupCycles:  s.NetWarmup,
			MeasureCycles: s.NetMeasure,
			Seed:          s.Seed,
			NoFastForward: s.NoFastForward,
			Injection:     s.Injection,
		}
		series, err := sweep.Curve(p, c.name, s.NetLoads, func(load float64) (sweep.Point, error) {
			o := base
			o.Load = load
			res, err := s.runNet(p, o)
			if err != nil {
				return sweep.Point{}, err
			}
			return sweep.Point{Y: res.AvgLatency, Saturated: res.Saturated}, nil
		})
		if err != nil {
			return caseOut{}, err
		}
		zeroOpts := base
		zeroOpts.Load = 0.05
		zero, err := s.runNet(p, zeroOpts)
		if err != nil {
			return caseOut{}, err
		}
		return caseOut{series: series, zero: zero}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, out := range outs {
		t.AddSeries(out.series)
		t.AddScalar("zero-load latency "+cases[i].name, out.zero.AvgLatency, "cycles")
		t.AddScalar("avg hops "+cases[i].name, out.zero.AvgHops, "router traversals")
	}
	t.AddNote("extension: direct low-degree topologies pay hop count and early saturation; the multistage Clos trades per-hop latency for path diversity")
	return t, nil
}
