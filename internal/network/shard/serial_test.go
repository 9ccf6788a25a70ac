package shard

import (
	"highradix/internal/flit"
	"highradix/internal/network"
	"highradix/internal/stats"
	"highradix/internal/traffic"
)

// serialRun is the reference driver the determinism, fuzz and mutation
// suites compare Run against: the whole network in one engine, one loop
// over cycles, accounting, hooks and exit checks inline. It shares no
// epoch, mailbox, merge or replay code with Run, so agreement between
// the two at every worker count is evidence about all of that
// machinery. Changes to the cycle structure of Run must be mirrored
// here.
func serialRun(o network.Options) (network.Result, error) {
	o = o.WithDefaults()
	topo, err := o.Topology()
	if err != nil {
		return network.Result{}, err
	}
	nw := network.NewNetwork(topo, o.RouteSeed())
	src := network.NewSources(topo, o.SourceOpts(topo), 0, topo.Routers())
	n, ser := topo.Terminals(), topo.SerCycles()
	gap := o.Injection == traffic.InjGap

	lat := stats.NewSample(8192)
	hops := stats.NewSample(4096)
	var (
		deliveredLabeled int64
		measFlitsOut     int64
		delFlits         int64
		now              int64
	)
	measStart := o.WarmupCycles
	measEnd := o.WarmupCycles + o.MeasureCycles
	maxCycles := measEnd + o.DrainCycles
	// Whole cycles may be jumped only where no RNG draw can occur.
	// Unhooked per-cycle runs draw every terminal's stream every cycle,
	// so they never jump (they still skip quiescent Steps, which is
	// exact at any time); hooked runs stop generating at measEnd and may
	// fast-forward the drain tail once every source queue is empty.
	fastForward := !o.NoFastForward
	var onInject func(*flit.Flit)
	if o.Hooks != nil {
		onInject = func(f *flit.Flit) { o.Hooks.Injected(now, f) }
	}

	for now = 0; now < maxCycles; now++ {
		measuring := now >= measStart && now < measEnd
		generating := o.Hooks == nil || now < measEnd
		if generating {
			src.Generate(now, measuring)
		}
		src.InjectAll(now, nw, onInject)
		// Advance the network and collect deliveries. A quiescent
		// network's step is a provable no-op (and ejects nothing), so it
		// is skipped outright; Ejected() must not be read on a skipped
		// cycle, as it still holds the previous step's recycled flits.
		if !fastForward || !nw.Quiescent() {
			nw.Step(now)
			for _, f := range nw.Ejected() {
				if measuring {
					measFlitsOut++
				}
				if f.Tail && f.Measured {
					lat.Add(float64(now - f.CreatedAt))
					hops.Add(float64(f.Hops))
					deliveredLabeled++
				}
				delFlits++
				if o.Hooks != nil {
					o.Hooks.Delivered(now, f)
				}
				src.Recycle(f)
			}
		}
		if o.Hooks != nil {
			if err := o.Hooks.EndCycle(now, nw.InFlight()); err != nil {
				return network.Result{}, err
			}
			// A hooked run drains every generated flit, not just the
			// labeled sample, so conservation holds over the whole run.
			if now >= measEnd && delFlits >= src.GenFlits() {
				now++
				break
			}
		} else if now >= measEnd && (deliveredLabeled >= src.InjectedLabeled() ||
			(src.Backlog() == 0 && nw.InFlight() == 0)) {
			// The second disjunct ends the drain the moment the network
			// is provably empty: with no source backlog and nothing in
			// flight, no further delivery can occur, so waiting out the
			// drain bound would only burn cycles (and, in a run that
			// leaked labeled packets, mask the loss — the saturation
			// check below still flags it).
			now++
			break
		}
		// Fast-forward across provably idle stretches: every source
		// queue is empty and no generation can occur before the
		// network's next internal event, so jump time straight there.
		// Skipped cycles draw no RNG, deliver nothing, and leave every
		// exit check unchanged (wake is capped at measEnd so no phase
		// boundary is crossed); the auditor's EndCycle is a no-op on
		// them (no events, and the watchdog only arms against a live
		// set that NextWake bounds). Per-cycle generation draws every
		// live cycle, so only a hooked drain tail may jump; gap mode
		// schedules every future injection on the wheel, so any idle
		// stretch may be jumped, at any load, with the wake capped at
		// the wheel's next event.
		if fastForward && src.Backlog() == 0 && (gap || !generating) {
			wake := nw.NextWake(now)
			if gap && (o.Hooks == nil || now+1 < measEnd) {
				if at, ok := src.WheelNext(); ok && at < wake {
					wake = at
				}
			}
			if now < measEnd && wake > measEnd {
				wake = measEnd
			}
			if wake > maxCycles {
				wake = maxCycles
			}
			if wake-1 > now {
				now = wake - 1
			}
		}
	}

	res := network.Result{
		Load:       o.Load,
		AvgLatency: lat.Mean(),
		P99:        lat.Quantile(0.99),
		Throughput: float64(measFlitsOut) * float64(ser) / (float64(n) * float64(o.MeasureCycles)),
		Packets:    deliveredLabeled,
		Cycles:     now,
		AvgHops:    hops.Mean(),
	}
	if now > measEnd {
		res.DrainUsed = now - measEnd
	}
	if deliveredLabeled < src.InjectedLabeled() || res.AvgLatency > o.SatLatency {
		res.Saturated = true
	}
	return res, nil
}
