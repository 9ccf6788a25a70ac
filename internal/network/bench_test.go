package network

import (
	"fmt"
	"testing"
)

// BenchmarkQuiescentNetworkCycle measures one cycle of an empty Clos
// network: the Quiescent test a fast-forwarding driver pays, and the
// full Step a dense one pays. With the active-router bitsets, the empty
// Step visits no router at all — its cost is a handful of empty bitset
// words per stage — so both numbers stay flat as the network grows from
// 256 routers (k16 d2) to 4096 terminals' worth of radix-64 hardware,
// demonstrating O(active) rather than O(routers) idle advance.
func BenchmarkQuiescentNetworkCycle(b *testing.B) {
	for _, cfg := range []Config{
		{Radix: 16, Digits: 2},
		{Radix: 64, Digits: 2},
	} {
		cfg := cfg
		nw, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("quiescent/k%dd%d", cfg.Radix, cfg.Digits), func(b *testing.B) {
			b.ReportAllocs()
			sink := false
			for n := 0; n < b.N; n++ {
				sink = nw.Quiescent()
			}
			_ = sink
		})
		b.Run(fmt.Sprintf("emptystep/k%dd%d", cfg.Radix, cfg.Digits), func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				nw.Step(int64(n))
			}
		})
	}
}

// BenchmarkLoadedNetworkCycle measures one driver cycle of a Clos
// network in steady state at 60% offered load: generate, inject, Step,
// and recycle the ejected flits — the per-cycle body of a one-worker
// shard epoch, without its delivery records. The network is warmed for
// 500 cycles first, so every op runs against full buffers, busy
// channels and in-flight credits; k64d2 is the 4096-node network of
// Figure 19.
func BenchmarkLoadedNetworkCycle(b *testing.B) {
	for _, cfg := range []Config{
		{Radix: 16, Digits: 2},
		{Radix: 64, Digits: 2},
	} {
		b.Run(fmt.Sprintf("k%dd%d", cfg.Radix, cfg.Digits), func(b *testing.B) {
			o := Options{Net: cfg, Load: 0.6, Seed: 1}.WithDefaults()
			topo, err := o.Topology()
			if err != nil {
				b.Fatal(err)
			}
			nw := NewNetwork(topo, o.RouteSeed())
			src := NewSources(topo, o.SourceOpts(topo), 0, topo.Routers())
			var now int64
			cycle := func() {
				src.Generate(now, false)
				src.InjectAll(now, nw, nil)
				nw.Step(now)
				for _, f := range nw.Ejected() {
					src.Recycle(f)
				}
				now++
			}
			for now < 500 {
				cycle()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				cycle()
			}
		})
	}
}
