package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"highradix"
	"highradix/internal/experiments"
	"highradix/internal/network/shard"
	"highradix/internal/sweep"
	"highradix/internal/traffic"
)

// The clos-net workload: a closed loop with a sweep pool of at most
// nproc workers. Each round regenerates the Quick fig19 and its
// gap-injection twin, then runs one point of the reduced 256-node
// radix-16 Clos and one of the paper's 4096-node radix-64 Clos at load
// 0.6. Time goes to the network engine, sources, the event wheel and
// shard epochs; the per-architecture router code never runs.

var closFigures = []string{"fig19", "fig19_gap"}

const closLoad = 0.6

// netOptions is a Clos point at load 0.6 whose traffic seed derives
// from the workload seed. radix 16 gives the reduced 256-node network,
// radix 64 the paper's 4096-node one.
func netOptions(seed uint64, radix int, warmup, measure int64) highradix.NetOptions {
	return highradix.NetOptions{
		Net:           highradix.NetworkConfig{Radix: radix, Digits: 2},
		Load:          closLoad,
		WarmupCycles:  warmup,
		MeasureCycles: measure,
		Seed:          splitmix64(seed ^ uint64(radix)<<16),
	}
}

// closPoints are the two network points of a round: the reduced and the
// full Clos. Phase lengths keep each point under a second of host time;
// the 4096-node network's construction, about 2% of its call, is
// included in its per-cycle cost.
var closPoints = []struct {
	name            string
	radix           int
	warmup, measure int64
}{
	{"k16", 16, 1000, 2000},
	{"k64", 64, 100, 300},
}

// netPoint runs one Clos point through the root API and returns host CPU
// µs per simulated network cycle and the CPU time of the call. The first
// result for each point is kept in want; later rounds must reproduce it
// exactly.
func netPoint(r *run, i int, want map[int]highradix.NetResult, parent int) (float64, highradix.NetResult, time.Duration) {
	p := closPoints[i]
	id := r.trace.Begin(fmt.Sprintf("network.SimulateNetwork/%s", p.name), parent)
	c0 := cpuNow()
	res, err := highradix.SimulateNetwork(netOptions(r.seed, p.radix, p.warmup, p.measure))
	d := cpuNow() - c0
	r.trace.End(id, res.Cycles)
	if err == nil && (res.Cycles <= 0 || res.Packets <= 0) {
		err = fmt.Errorf("Clos %s delivered nothing: %+v", p.name, res)
	}
	if prev, ok := want[i]; err == nil && ok && prev != res {
		err = fmt.Errorf("Clos %s did not repeat: %+v then %+v", p.name, prev, res)
	}
	r.check(err)
	if err != nil {
		return 0, res, d
	}
	want[i] = res
	return micros(d) / float64(res.Cycles), res, d
}

func closNet(r *run) error {
	var g goldens
	setup, err := medianSetup(r, func() (_ func() error, err error) {
		if g, err = loadGoldens(goldenDir, closFigures...); err != nil {
			return nil, err
		}
		// Building the 4096-node network is the set-up a user pays
		// before the first cycle; a three-cycle run is that build.
		id := r.trace.Begin("network.SimulateNetwork/build-k64", 0)
		o := netOptions(r.seed, 64, 1, 1)
		o.DrainCycles = 1
		_, err = highradix.SimulateNetwork(o)
		r.trace.End(id, 1)
		return nil, err
	})
	if err != nil {
		return err
	}
	r.set("setup_s", setup)

	scale := experiments.Quick
	scale.Workers = r.procs
	gapScale := scale
	gapScale.Injection = traffic.InjGap
	// Both figures come from the fig19 generator; the scale picks the
	// injection mode.
	runs := []figureRun{{"fig19", "fig19", scale}, {"fig19_gap", "fig19", gapScale}}

	want := map[int]highradix.NetResult{}
	var small, large, figs, runS, flitsPS []float64
	figTimes := map[string][]float64{}
	end := time.Now().Add(r.measure)
	if r.trace.on {
		closProbes(r, want)
	}
	interleave(r, end, func() {
		id := r.trace.Begin("bench.netRound", 0)
		us, _, _ := netPoint(r, 0, want, id)
		small = append(small, us)
		r.calibrate()
		us, res, d := netPoint(r, 1, want, id)
		large = append(large, us)
		runS = append(runS, seconds(d))
		flitsPS = append(flitsPS, float64(res.Packets)/seconds(d))
		r.trace.End(id, 1)
	}, func() {
		figs = append(figs, g.figures(r, runs, figTimes))
	})
	r.set("figures_s", median(figs))
	r.set("op_small_us", median(small))
	r.set("op_large_us", median(large))
	r.set("network.run_s", median(runS))
	r.set("network.flits_per_s", median(flitsPS))
	for _, name := range closFigures {
		r.set("experiments."+name+"_s", median(figTimes[name]))
	}
	fmt.Fprintf(os.Stderr, "clos-net: %d network rounds, per-cycle 256-node %.1f us, 4096-node %.1f us; %d figure pairs %.3f s\n",
		len(small), median(small), median(large), len(figs), median(figs))
	return nil
}

// closProbes measures the per-layer metrics of the clos-net workload:
// the 2-worker shard speedup on the 4096-node point, the sweep pool's
// occupancy, wait and wasted speculative points on a latency-load curve,
// and the cost of tracing itself.
func closProbes(r *run, want map[int]highradix.NetResult) {
	// shard.Run at 1 and at 2 workers (never more than nproc) on a
	// shortened 4096-node point; both must give the same result.
	w2 := min(2, r.procs)
	base := shard.Options{Options: netOptions(r.seed, 64, 100, 200)}
	var t1, t2 []float64
	var res1 highradix.NetResult
	for i := 0; i < 2; i++ {
		for _, w := range []int{1, w2} {
			o := base
			o.Workers = w
			id := r.trace.Begin(fmt.Sprintf("shard.Run/w%d", w), 0)
			t0 := time.Now()
			res, err := shard.Run(o)
			d := time.Since(t0)
			r.trace.End(id, res.Cycles)
			if err == nil && w == 1 {
				res1 = res
			} else if err == nil && res != res1 {
				err = fmt.Errorf("shard.Run at %d workers differs from 1 worker", w)
			}
			r.check(err)
			if w == 1 {
				t1 = append(t1, seconds(d))
			} else {
				t2 = append(t2, seconds(d))
			}
		}
	}
	r.set("shard.w2_speedup", median(t1)/median(t2))

	// The sweep pool drives a fine latency-load curve of the reduced
	// Clos. Busy is the time points hold pool slots; wait is submit to
	// start; points run past the curve's saturation knee are wasted.
	pool := sweep.New(r.procs)
	loads := []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0}
	var (
		mu    sync.Mutex
		busy  time.Duration
		waits []float64
		ran   int
	)
	curve := r.trace.Begin("sweep.Curve/k16", 0)
	t0 := time.Now()
	series, err := sweep.Curve(pool, "k16", loads, func(load float64) (sweep.Point, error) {
		submit := time.Now()
		return sweep.Do(pool, func() (sweep.Point, error) {
			start := time.Now()
			id := r.trace.Begin("shard.Run/w1", curve)
			o := shard.Options{Options: netOptions(r.seed, 16, 300, 600), Workers: 1}
			o.Load = load
			res, err := shard.Run(o)
			r.trace.End(id, res.Cycles)
			mu.Lock()
			busy += time.Since(start)
			waits = append(waits, float64(start.Sub(submit).Nanoseconds())/1e6)
			ran++
			mu.Unlock()
			return sweep.Point{Y: res.AvgLatency, Saturated: res.Saturated}, err
		})
	})
	span := time.Since(t0)
	r.trace.End(curve, int64(len(loads)))
	if err == nil && (series == nil || len(series.Points) == 0) {
		err = fmt.Errorf("sweep.Curve kept no points")
	}
	r.check(err)
	if err == nil {
		r.set("sweep.busy_frac", busy.Seconds()/(float64(pool.Workers())*span.Seconds()))
		r.set("sweep.wait_ms", median(waits))
		r.set("sweep.useful_ratio", float64(len(series.Points))/float64(ran))
	}

	var off, on []float64
	for i := 0; i < 3; i++ {
		r.trace.on = false
		off = append(off, seconds(cpuTimed(func() { netPoint(r, 0, want, 0) })))
		r.trace.on = true
		on = append(on, seconds(cpuTimed(func() { netPoint(r, 0, want, 0) })))
	}
	r.set("bench.trace_overhead_frac", median(on)/median(off)-1)
}
