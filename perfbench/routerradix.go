package main

import (
	"fmt"
	"os"
	"time"

	"highradix"
	"highradix/internal/experiments"
)

// The router-radix workload: a closed loop on one goroutine with a sweep
// pool of 1. Each round runs highradix.Simulate for four architectures at
// radix 64 and 256 under uniform Bernoulli traffic at load 0.6, then
// regenerates the Quick radixscale and fig_alloc figures. Nearly all host
// time goes to arb, router/core, router and testbench; no network, shard,
// cache or serve code runs.

// routerArch names one measured architecture.
type routerArch struct {
	name string
	arch highradix.Arch
}

var routerArchs = []routerArch{
	{"baseline", highradix.Baseline},
	{"buffered", highradix.Buffered},
	{"hierarchical", highradix.Hierarchical},
	{"voq", highradix.VOQ},
}

var routerRadices = []int{64, 256}

var routerFigures = []string{"radixscale", "fig_alloc"}

const routerLoad = 0.6

// simOptions is the single-router point a round simulates for one
// architecture and radix; its traffic seed derives from the workload
// seed.
func simOptions(seed uint64, a highradix.Arch, k int) highradix.SimOptions {
	return highradix.SimOptions{
		Router:        highradix.RouterConfig{Arch: a, Radix: k},
		Load:          routerLoad,
		WarmupCycles:  500,
		MeasureCycles: 2000,
		Seed:          splitmix64(seed ^ uint64(k)<<8 ^ uint64(a)),
	}
}

// cycleCost is host µs per simulated router-cycle at each radix,
// averaged over the architectures, in CPU time and in wall-clock.
type cycleCost struct{ cpu, wall map[int]float64 }

// simRound runs every (architecture, radix) point once. The clocks start
// when the measurement window opens, so router construction (timed in
// set-up) and warmup stay out of the per-cycle cost. want holds the first
// round's results; every later round must reproduce them exactly.
func simRound(r *run, want map[string]highradix.SimResult, parent int) cycleCost {
	cc := cycleCost{map[int]float64{}, map[int]float64{}}
	for _, k := range routerRadices {
		for _, ra := range routerArchs {
			o := simOptions(r.seed, ra.arch, k)
			var c0 time.Duration
			var t0 time.Time
			o.OnMeasureStart = func() { c0, t0 = cpuNow(), time.Now() }
			id := r.trace.Begin(fmt.Sprintf("testbench.Simulate/%s/k%d", ra.name, k), parent)
			res, err := highradix.Simulate(o)
			c, d := cpuNow()-c0, time.Since(t0)
			r.trace.End(id, res.Cycles)
			key := fmt.Sprintf("%s/k%d", ra.name, k)
			cycles := res.Cycles - o.WarmupCycles
			if err == nil && cycles <= 0 {
				err = fmt.Errorf("Simulate %s simulated no cycles", key)
			}
			if prev, ok := want[key]; err == nil && ok && prev != res {
				err = fmt.Errorf("Simulate %s did not repeat: %+v then %+v", key, prev, res)
			}
			r.check(err)
			if err != nil {
				continue
			}
			want[key] = res
			n := float64(cycles * int64(len(routerArchs)))
			cc.cpu[k] += micros(c) / n
			cc.wall[k] += micros(d) / n
		}
	}
	return cc
}

// routerSetup builds every measured router once and loads the goldens;
// it is what a user pays before the first simulated cycle.
func routerSetup(r *run, newMS map[string][]float64) (goldens, error) {
	g, err := loadGoldens(goldenDir, routerFigures...)
	if err != nil {
		return nil, err
	}
	for _, k := range routerRadices {
		for _, ra := range routerArchs {
			name := fmt.Sprintf("router.new_ms.%s.k%d", ra.name, k)
			id := r.trace.Begin(fmt.Sprintf("router.New/%s/k%d", ra.name, k), 0)
			c0 := cpuNow()
			_, err := highradix.NewRouter(highradix.RouterConfig{Arch: ra.arch, Radix: k})
			d := cpuNow() - c0
			r.trace.End(id, 1)
			if err != nil {
				return nil, err
			}
			newMS[name] = append(newMS[name], float64(d.Nanoseconds())/1e6)
		}
	}
	return g, nil
}

func routerRadix(r *run) error {
	newMS := map[string][]float64{}
	var g goldens
	setup, err := medianSetup(r, func() (_ func() error, err error) {
		g, err = routerSetup(r, newMS)
		return nil, err
	})
	if err != nil {
		return err
	}
	r.set("setup_s", setup)

	scale := experiments.Quick
	scale.Workers = 1
	var runs []figureRun
	for _, name := range routerFigures {
		runs = append(runs, figureRun{name, name, scale})
	}
	want := map[string]highradix.SimResult{}
	var small, large, figs []float64
	figTimes := map[string][]float64{}
	end := time.Now().Add(r.measure)
	if r.trace.on {
		// Layer probes take a fixed share of the traced run; the rounds
		// fill the rest.
		routerProbes(r, newMS, want)
	}
	interleave(r, end, func() {
		id := r.trace.Begin("bench.simRound", 0)
		cc := simRound(r, want, id)
		r.trace.End(id, 1)
		small = append(small, cc.cpu[64])
		large = append(large, cc.cpu[256])
	}, func() {
		figs = append(figs, g.figures(r, runs, figTimes))
	})
	r.set("figures_s", median(figs))
	r.set("op_small_us", median(small))
	r.set("op_large_us", median(large))
	for _, name := range routerFigures {
		r.set("experiments."+name+"_s", median(figTimes[name]))
	}
	fmt.Fprintf(os.Stderr, "router-radix: %d simulation rounds, per-cycle k64 %.2f us, k256 %.2f us; %d figure pairs %.3f s\n",
		len(small), median(small), median(large), len(figs), median(figs))
	return nil
}

// routerProbes measures the per-layer metrics of the router-radix
// workload: arbiter calls, router construction, Router.Step self-time
// in the benchmark's own driver, the baseline NACK share, Sample.Add,
// and the cost of tracing itself.
func routerProbes(r *run, newMS map[string][]float64, want map[string]highradix.SimResult) {
	for name, v := range newMS {
		r.set(name, median(v))
	}
	r.set("arb.localglobal_ns.k64", probeLocalGlobal(r, 64, 2_000_000))
	r.set("arb.localglobal_ns.k256", probeLocalGlobal(r, 256, 1_000_000))
	r.set("arb.islip_match_ns.k256", probeISLIP(r, 256, 20_000))
	r.set("stats.add_ns", probeSampleAdd(r, 2_000_000))

	for _, ra := range routerArchs {
		for _, k := range routerRadices {
			r.check(stepDriver(r, ra.name, highradix.RouterConfig{Arch: ra.arch, Radix: k}, routerLoad, 300, 600))
		}
	}
	self := SelfTimes(r.trace.Spans())
	stepUS := map[int]float64{}
	for _, ra := range routerArchs {
		per := map[int]float64{}
		for _, k := range routerRadices {
			lt := self[stepSpan(ra.name, k)]
			if lt.Count == 0 {
				continue
			}
			us := micros(lt.Self) / float64(lt.Count)
			per[k] = us
			stepUS[k] += us / float64(len(routerArchs))
			r.set(fmt.Sprintf("router.step_us.%s.k%d", ra.name, k), us)
		}
		if per[64] > 0 {
			r.set("router.step_ratio."+ra.name, (per[256]/256)/(per[64]/64))
		}
	}

	for _, k := range routerRadices {
		var grants, nacks int64
		o := simOptions(r.seed, highradix.Baseline, k)
		o.Router.Observer = highradix.ObserverFunc(func(e highradix.Event) {
			switch e.Kind {
			case highradix.EvGrant:
				grants++
			case highradix.EvNack:
				nacks++
			}
		})
		id := r.trace.Begin(fmt.Sprintf("testbench.Simulate+observer/baseline/k%d", k), 0)
		_, err := highradix.Simulate(o)
		r.trace.End(id, 1)
		if err == nil && grants+nacks == 0 {
			err = fmt.Errorf("observer saw no grants or NACKs at k=%d", k)
		}
		r.check(err)
		if grants+nacks > 0 {
			r.set(fmt.Sprintf("router.nack_ratio.baseline.k%d", k), float64(nacks)/float64(grants+nacks))
		}
	}

	// Tracing overhead: the same Simulate round with spans off and on,
	// alternated, compared by median round time.
	var off, on []float64
	for i := 0; i < 3; i++ {
		r.trace.on = false
		off = append(off, seconds(cpuTimed(func() { simRound(r, want, 0) })))
		r.trace.on = true
		on = append(on, seconds(cpuTimed(func() { simRound(r, want, 0) })))
	}
	r.set("bench.trace_overhead_frac", median(on)/median(off)-1)

	// The step driver times Router.Step by wall-clock around each call,
	// so the testbench's share compares it with wall-clock per cycle.
	cc := simRound(r, want, 0)
	for _, k := range routerRadices {
		if cc.wall[k] > 0 {
			r.set(fmt.Sprintf("testbench.self_frac.k%d", k), 1-stepUS[k]/cc.wall[k])
		}
	}
}
