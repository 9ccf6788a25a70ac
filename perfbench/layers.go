package main

import (
	"fmt"
	"math/rand/v2"

	"highradix"
	"highradix/internal/arb"
	"highradix/internal/flit"
	"highradix/internal/stats"
)

// Layer probes: each times calls into one layer's public entry points
// from outside, under a span, so the traced run can attribute host time
// to arb, router and stats without any tracing inside the program.

// requestDensity is the share of set bits in the arbiter request vectors,
// matching the 0.6 offered load of the router workloads.
const requestDensity = 0.6

// sink keeps the probes' results live.
var sink int

func randomBits(rng *rand.Rand, n int) arb.BitVec {
	v := arb.MakeBitVec(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < requestDensity {
			v.Set(i)
		}
	}
	return v
}

// probeLocalGlobal returns ns per LocalGlobal.ArbitrateBits call at
// radix k with the paper's m=8 local groups.
func probeLocalGlobal(r *run, k int, calls int) float64 {
	rng := rand.New(rand.NewPCG(r.seed, uint64(k)))
	vecs := make([]arb.BitVec, 64)
	for i := range vecs {
		vecs[i] = randomBits(rng, k)
	}
	a := arb.NewLocalGlobal(k, 8)
	id := r.trace.Begin(fmt.Sprintf("arb.LocalGlobal.ArbitrateBits/k%d", k), 0)
	d := cpuTimed(func() {
		for i := 0; i < calls; i++ {
			sink += a.ArbitrateBits(&vecs[i&63])
		}
	})
	r.trace.End(id, int64(calls))
	return float64(d.Nanoseconds()) / float64(calls)
}

// probeISLIP returns ns per single-iteration ISLIP.Match call at radix
// k. Match consumes the eligible-output vector, so each call restores it
// from a copy; the copy is a few word stores and is timed with the call.
func probeISLIP(r *run, k int, calls int) float64 {
	rng := rand.New(rand.NewPCG(r.seed, uint64(k)+1))
	cols := make([]arb.BitVec, k)
	for o := range cols {
		cols[o] = randomBits(rng, k)
	}
	full := arb.MakeBitVec(k)
	for o := 0; o < k; o++ {
		full.Set(o)
	}
	outEl := arb.MakeBitVec(k)
	s := arb.NewISLIP(k)
	accept := func(in, out int) {}
	id := r.trace.Begin(fmt.Sprintf("arb.ISLIP.Match/k%d", k), 0)
	d := cpuTimed(func() {
		for i := 0; i < calls; i++ {
			for w := 0; w < full.Words(); w++ {
				outEl.SetWordAt(w, full.Word(w))
			}
			sink += s.Match(1, cols, &outEl, accept)
		}
	})
	r.trace.End(id, int64(calls))
	return float64(d.Nanoseconds()) / float64(calls)
}

// probeSampleAdd returns ns per stats.Sample.Add into the reservoir
// size the testbench uses.
func probeSampleAdd(r *run, calls int) float64 {
	s := stats.NewSample(8192)
	id := r.trace.Begin("stats.Sample.Add", 0)
	d := cpuTimed(func() {
		for i := 0; i < calls; i++ {
			s.Add(float64(i & 1023))
		}
	})
	r.trace.End(id, int64(calls))
	if s.N() != int64(calls) {
		r.check(fmt.Errorf("stats.Sample counted %d of %d adds", s.N(), calls))
	}
	return float64(d.Nanoseconds()) / float64(calls)
}

// stepDriver steps a router through the public Router interface with
// Bernoulli single-flit packets at the given load, uniform destinations
// and round-robin VC choice. After warmup cycles it records a span named
// stepSpan(name, k) around every Step call, under a parent span that
// covers the driver's own work, so the Step spans' self-time is the
// router's alone and excludes everything a testbench does around Step.
func stepDriver(r *run, name string, cfg highradix.RouterConfig, load float64, warmup, cycles int) error {
	rt, err := highradix.NewRouter(cfg)
	if err != nil {
		return err
	}
	c := rt.Config()
	k, v, st := c.Radix, c.VCs, int64(c.STCycles)
	rng := rand.New(rand.NewPCG(r.seed, uint64(k)*31+uint64(c.Arch)))
	pGen := load / float64(st)
	pending := make([]int, k)
	injFree := make([]int64, k)
	vcPtr := make([]int, k)
	var free []*flit.Flit
	var pkt uint64
	parent := r.trace.Begin(fmt.Sprintf("bench.stepDriver/%s/k%d", name, k), 0)
	span := stepSpan(name, k)
	for now := int64(0); now < int64(warmup+cycles); now++ {
		for i := 0; i < k; i++ {
			if rng.Float64() < pGen {
				pending[i]++
			}
			if pending[i] == 0 || injFree[i] > now {
				continue
			}
			for t := 0; t < v; t++ {
				vc := (vcPtr[i] + t) % v
				if !rt.CanAccept(i, vc) {
					continue
				}
				var f *flit.Flit
				if n := len(free); n > 0 {
					f, free = free[n-1], free[:n-1]
				} else {
					f = new(flit.Flit)
				}
				pkt++
				*f = flit.Flit{PacketID: pkt, Src: i, Dst: rng.IntN(k), VC: vc, Head: true, Tail: true,
					PacketLen: 1, CreatedAt: now, InjectedAt: now}
				rt.Accept(now, f)
				pending[i]--
				injFree[i] = now + st
				vcPtr[i] = (vc + 1) % v
				break
			}
		}
		var id int
		if now >= int64(warmup) {
			id = r.trace.Begin(span, parent)
		}
		rt.Step(now)
		r.trace.End(id, 1)
		free = append(free, rt.Ejected()...)
	}
	r.trace.End(parent, int64(cycles))
	if pkt == 0 || len(free) == 0 {
		return fmt.Errorf("step driver for %s k=%d moved no flits", name, k)
	}
	return nil
}

func stepSpan(name string, k int) string { return fmt.Sprintf("router.Step/%s/k%d", name, k) }
