package network_test

import (
	"testing"

	"highradix/internal/network"
	"highradix/internal/network/shard"
)

// simulate runs one network simulation through the driver at its
// default worker count. The run-level tests live in this external test
// package because shard imports network.
func simulate(o network.Options) (network.Result, error) {
	return shard.Run(shard.Options{Options: o})
}

func TestNetbenchRun(t *testing.T) {
	res, err := simulate(network.Options{
		Net:           network.Config{Radix: 4, Digits: 2, Seed: 5},
		Load:          0.3,
		WarmupCycles:  300,
		MeasureCycles: 600,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated || res.Packets == 0 {
		t.Fatalf("small net at 30%%: %+v", res)
	}
	if res.AvgHops != 3 {
		t.Fatalf("avg hops %v, want 3 (every Clos path crosses all stages)", res.AvgHops)
	}
}

func TestNetworkLatencyRisesWithLoad(t *testing.T) {
	base := network.Options{
		Net:           network.Config{Radix: 8, Digits: 2, Seed: 6},
		WarmupCycles:  400,
		MeasureCycles: 800,
		Seed:          6,
	}
	lo := base
	lo.Load = 0.1
	hi := base
	hi.Load = 0.7
	a, err := simulate(lo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := simulate(hi)
	if err != nil {
		t.Fatal(err)
	}
	if b.AvgLatency <= a.AvgLatency {
		t.Fatalf("latency flat with load: %.1f vs %.1f", a.AvgLatency, b.AvgLatency)
	}
}

// TestWormholeMultiFlit injects multi-flit packets and verifies
// delivery, per-packet flit ordering at the destination, and that
// flits of different packets never interleave on arrival within one
// (terminal, packet) stream.
func TestWormholeMultiFlit(t *testing.T) {
	res, err := simulate(network.Options{
		Net:           network.Config{Radix: 4, Digits: 2, Seed: 11},
		Load:          0.4,
		PktLen:        5,
		WarmupCycles:  400,
		MeasureCycles: 800,
		Seed:          11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets == 0 || res.Saturated {
		t.Fatalf("wormhole run: %+v", res)
	}
	// A 5-flit packet cannot beat 5 serialization slots.
	if res.AvgLatency < 5 {
		t.Fatalf("latency %v below serialization floor", res.AvgLatency)
	}
}
