package main

import (
	"os"
	"path/filepath"
	"testing"

	"highradix/internal/experiments"
)

// A golden that no longer matches the generated figure must be counted
// as a failure, so fail_frac rises above zero.
func TestCorruptedGoldenYieldsFailure(t *testing.T) {
	src := filepath.Join("..", goldenDir, "fig9.golden")
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, corrupt := range []bool{false, true} {
		dir := t.TempDir()
		data := append([]byte(nil), b...)
		if corrupt {
			data[len(data)/2] ^= 1
		}
		if err := os.WriteFile(filepath.Join(dir, "fig9.golden"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := loadGoldens(dir, "fig9")
		if err != nil {
			t.Fatal(err)
		}
		r := &run{metrics: map[string]float64{}}
		_, err = g.figure("fig9", "fig9", experiments.Quick)
		r.check(err)
		if frac := float64(r.failed) / float64(r.attempted); (frac > 0) != corrupt {
			t.Errorf("corrupt=%v: fail_frac %v", corrupt, frac)
		}
	}
}
