package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"highradix/internal/experiments"
)

// goldenDir holds the figure goldens the repository's own tests pin.
// They are read at run time, so regenerating a golden on purpose needs
// no benchmark edit.
const goldenDir = "internal/experiments/testdata"

// goldens maps a figure name to its recorded Quick-scale text table.
type goldens map[string]string

func loadGoldens(dir string, names ...string) (goldens, error) {
	g := goldens{}
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(dir, n+".golden"))
		if err != nil {
			return nil, fmt.Errorf("load golden: %w", err)
		}
		g[n] = string(b)
	}
	return g, nil
}

// check reports a mismatch between a generated table and its golden.
func (g goldens) check(name, got string) error {
	want, ok := g[name]
	if !ok {
		return fmt.Errorf("no golden loaded for %s", name)
	}
	if got != want {
		return fmt.Errorf("%s differs from %s/%s.golden", name, goldenDir, name)
	}
	return nil
}

// figureRun is one figure a workload regenerates: the golden it must
// match, the registered experiment that produces it, and the scale.
type figureRun struct {
	golden, exp string
	scale       experiments.Scale
}

// figures regenerates each figure in turn under a bench.figures span,
// counts each check, appends each one's seconds to times under its
// golden name, and returns the total seconds. Figures are timed by
// wall-clock less steal (wallClock), since the sweep pool runs them in
// parallel and its idle time belongs to their cost.
func (g goldens) figures(r *run, runs []figureRun, times map[string][]float64) float64 {
	id := r.trace.Begin("bench.figures", 0)
	var total time.Duration
	for i, f := range runs {
		if i > 0 {
			r.calibrate()
		}
		fid := r.trace.Begin("experiments."+f.golden, id)
		d, err := g.figure(f.golden, f.exp, f.scale)
		r.trace.End(fid, 1)
		r.check(err)
		total += d
		times[f.golden] = append(times[f.golden], seconds(d))
	}
	r.trace.End(id, 1)
	return seconds(total)
}

// figure regenerates experiment exp at scale s through the registry,
// checks it against the golden called name (the gap-injection twins
// share their experiment's name), and returns the time it took by
// wallClock.
func (g goldens) figure(name, exp string, s experiments.Scale) (time.Duration, error) {
	gen, err := experiments.ByName(exp)
	if err != nil {
		return 0, err
	}
	c := startWall()
	tab, err := gen(s)
	d := c.elapsed()
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, g.check(name, tab.String())
}
