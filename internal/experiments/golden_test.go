package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"highradix/internal/stats"
	"highradix/internal/traffic"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ with freshly generated tables")

// golden compares a generated Quick-scale table against its recorded
// rendering. The experiment generators are deterministic at every
// worker count (see TestParallelSweepDeterminism), so these files pin
// the numeric output of the whole simulation stack — any change to
// routing, arbitration, RNG streams or statistics shows up as a diff
// here, and intentional changes are recorded with -update.
func golden(t *testing.T, name string, gen func() (*stats.Table, error)) {
	t.Helper()
	tab, err := gen()
	if err != nil {
		t.Fatal(err)
	}
	got := tab.String()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with: go test ./internal/experiments -run TestGolden -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s output diverged from its golden file.\nIf the change is intentional, regenerate with:\n"+
			"  go test ./internal/experiments -run TestGolden -update\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

func TestGoldenFig9(t *testing.T) {
	golden(t, "fig9", func() (*stats.Table, error) { return Fig9(Quick) })
}

func TestGoldenTableT1(t *testing.T) {
	golden(t, "table1", func() (*stats.Table, error) { return TableT1(Quick) })
}

// gapScale is Quick with gap-sampled injection. Gap mode is
// distribution-equivalent but not draw-identical to per-cycle
// injection, so it pins its own goldens; divergence between a gap
// golden and its per-cycle counterpart beyond statistical noise would
// indicate a sampler bug (the chi-square tests in internal/traffic
// bound the samplers themselves).
func gapScale() Scale {
	s := Quick
	s.Injection = traffic.InjGap
	return s
}

func TestGoldenFig9Gap(t *testing.T) {
	golden(t, "fig9_gap", func() (*stats.Table, error) { return Fig9(gapScale()) })
}

func TestGoldenFig19Gap(t *testing.T) {
	golden(t, "fig19_gap", func() (*stats.Table, error) { return Fig19(gapScale()) })
}

// TestGoldenFig19 pins the per-cycle network figure.
func TestGoldenFig19(t *testing.T) {
	golden(t, "fig19", func() (*stats.Table, error) { return Fig19(Quick) })
}

// TestGoldenRadixScale pins the radix-scaling extension figure —
// latency-throughput for the buffered and hierarchical organizations at
// radix 64, 128, and 256. Beyond recording the scaling claim, this is
// the golden that exercises every radix-256 hot path (multi-word tree
// arbitration, flat crosspoint banks, credit rings) end to end.
func TestGoldenRadixScale(t *testing.T) {
	golden(t, "radixscale", func() (*stats.Table, error) { return RadixScale(Quick) })
}

// TestGoldenFigAlloc pins the allocation-policy comparison figure —
// baseline separable allocation vs VOQ/iSLIP (1 and 3 iterations) vs
// dynamic VC allocation at radix 64. This is the golden that exercises
// the iSLIP matcher and the shared-pool admission rule end to end.
func TestGoldenFigAlloc(t *testing.T) {
	golden(t, "fig_alloc", func() (*stats.Table, error) { return FigAlloc(Quick) })
}

// TestGoldenTopo pins the ring/torus extension figure's datapoints.
func TestGoldenTopo(t *testing.T) {
	golden(t, "topo", func() (*stats.Table, error) { return FigTopo(Quick) })
}

func TestGoldenTopoGap(t *testing.T) {
	golden(t, "topo_gap", func() (*stats.Table, error) { return FigTopo(gapScale()) })
}
