package network_test

import (
	"testing"

	"highradix/internal/network"
	"highradix/internal/network/shard"
	"highradix/internal/traffic"
)

// TestPinClos4096 pins the full Result of the paper's Figure 19
// network — 4096 nodes, three stages of radix-64 routers — at a short
// window. No figure golden runs a radix-64 network (Quick fig19 is
// 256-node), so this is what holds engine optimizations at the scale
// they target to exact agreement. Every point runs at one worker; the
// per-cycle 0.6 point also runs at two.
func TestPinClos4096(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-node network")
	}
	pts := []struct {
		load    float64
		inj     traffic.InjMode
		sharded bool
		want    network.Result
	}{
		{0.6, traffic.InjPerCycle, true, network.Result{
			Load: 0.6, AvgLatency: 52.38185586301057, P99: 85, Throughput: 0.59509765625,
			Packets: 183839, Cycles: 518, AvgHops: 3, DrainUsed: 118}},
		{0.95, traffic.InjPerCycle, false, network.Result{
			Load: 0.95, AvgLatency: 115.50095196928999, P99: 299, Throughput: 0.7762923177083333,
			Packets: 291501, Cycles: 1707, AvgHops: 3, DrainUsed: 1307}},
		{0.6, traffic.InjGap, false, network.Result{
			Load: 0.6, AvgLatency: 52.40308635278802, P99: 86, Throughput: 0.5964485677083333,
			Packets: 184360, Cycles: 545, AvgHops: 3, DrainUsed: 145}},
	}
	for _, pt := range pts {
		o := network.Options{
			Net:           network.Config{Radix: 64},
			Load:          pt.load,
			WarmupCycles:  100,
			MeasureCycles: 300,
			Seed:          5,
			Injection:     pt.inj,
		}
		res, err := shard.Run(shard.Options{Options: o, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res != pt.want {
			t.Errorf("load %v %v: got %+v, want %+v", pt.load, pt.inj, res, pt.want)
		}
		if pt.sharded {
			sres, err := shard.Run(shard.Options{Options: o, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if sres != pt.want {
				t.Errorf("2 workers, load %v: got %+v, want %+v", pt.load, sres, pt.want)
			}
		}
	}
}
