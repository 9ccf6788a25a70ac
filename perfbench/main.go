// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks that every output it produced is
// correct, and prints one JSON line with the end-to-end metrics (or,
// with -trace 1, the per-layer metrics). See README.md in this
// directory for the workloads, the metric map and how to read a trace.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload router-radix --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef declares one printed metric. The lists below are the only
// names the benchmark prints; TestMetricNamesMatchBenchmarkJSON keeps
// them equal to BENCHMARK.json.
type metricDef struct{ Name, Unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"figures_s", "s"},
	{"op_small_us", "us"},
	{"op_large_us", "us"},
}

var perLayer = []metricDef{
	{"peak_heap_mb", "MiB"},
	{"bench.fail_frac", "ratio"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
	{"arb.localglobal_ns.k64", "ns"},
	{"arb.localglobal_ns.k256", "ns"},
	{"arb.islip_match_ns.k256", "ns"},
	{"router.new_ms.baseline.k64", "ms"},
	{"router.new_ms.baseline.k256", "ms"},
	{"router.new_ms.buffered.k64", "ms"},
	{"router.new_ms.buffered.k256", "ms"},
	{"router.new_ms.hierarchical.k64", "ms"},
	{"router.new_ms.hierarchical.k256", "ms"},
	{"router.new_ms.voq.k64", "ms"},
	{"router.new_ms.voq.k256", "ms"},
	{"router.step_us.baseline.k64", "us"},
	{"router.step_us.baseline.k256", "us"},
	{"router.step_us.buffered.k64", "us"},
	{"router.step_us.buffered.k256", "us"},
	{"router.step_us.hierarchical.k64", "us"},
	{"router.step_us.hierarchical.k256", "us"},
	{"router.step_us.voq.k64", "us"},
	{"router.step_us.voq.k256", "us"},
	{"router.step_ratio.baseline", "ratio"},
	{"router.step_ratio.buffered", "ratio"},
	{"router.step_ratio.hierarchical", "ratio"},
	{"router.step_ratio.voq", "ratio"},
	{"router.nack_ratio.baseline.k64", "ratio"},
	{"router.nack_ratio.baseline.k256", "ratio"},
	{"testbench.self_frac.k64", "ratio"},
	{"testbench.self_frac.k256", "ratio"},
	{"stats.add_ns", "ns"},
	{"network.flits_per_s", "1/s"},
	{"network.run_s", "s"},
	{"shard.w2_speedup", "ratio"},
	{"experiments.radixscale_s", "s"},
	{"experiments.fig_alloc_s", "s"},
	{"experiments.fig19_s", "s"},
	{"experiments.fig19_gap_s", "s"},
	{"experiments.fig9_s", "s"},
	{"sweep.busy_frac", "ratio"},
	{"sweep.wait_ms", "ms"},
	{"sweep.useful_ratio", "ratio"},
	{"cache.get_us", "us"},
	{"cache.put_us", "us"},
	{"cache.hit_ratio", "ratio"},
	{"cache.bytes_written", "bytes"},
	{"cache.corrupt", "count"},
	{"serve.handler_us", "us"},
	{"serve.transport_us", "us"},
	{"serve.inflight_peak", "count"},
	{"serve.timeouts", "count"},
	{"serve.hit_p50_us", "us"},
	{"serve.hit_p99_us", "us"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_p99_ms", "ms"},
	{"serve.max_rps", "1/s"},
}

// hostScaled are the end-to-end metrics read at the reference host speed
// (see stat.go): the CPU costs of steady compute loops, which the
// calibration kernel resembles. Across seeds, scaling narrowed their
// spread; it widened that of figures_s, which is wall-clock, and of
// setup_s, which is mostly allocation and system calls.
var hostScaled = map[string]bool{"op_small_us": true, "op_large_us": true}

// workloads maps each workload name to its driver. A driver returns an
// error only when it cannot run at all (missing sources, no listener);
// a wrong output is counted through run.check instead.
var workloads = map[string]func(*run) error{
	"router-radix":   routerRadix,
	"clos-net":       closNet,
	"figure-service": figureService,
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     uint64
	procs    int
	measure  time.Duration // the measured window, after set-up
	trace    *Tracer

	attempted, failed int64
	metrics           map[string]float64
	calibration       []float64 // kernel CPU seconds, one per sample
}

// calibrate records one sample of the host speed kernel.
func (r *run) calibrate() { r.calibration = append(r.calibration, seconds(calibrationKernel())) }

// speed is the host's speed in this run relative to the reference:
// calibrationRef ÷ the kernel's median time.
func (r *run) speed() float64 {
	if len(r.calibration) == 0 {
		r.calibrate()
	}
	return calibrationRef.Seconds() / median(r.calibration)
}

// check counts one checked output; a non-nil err is a failure.
func (r *run) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 10 {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
		}
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// fingerprint identifies the machine, toolchain, source and seed every
// output was produced under.
type fingerprint struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	SourceHash string `json:"source_sha256"`
	// HostSpeed is the run's calibrated host speed; the hostScaled
	// metrics are the measured values multiplied by it.
	HostSpeed float64 `json:"host_speed"`
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload to run: router-radix, clos-net or figure-service")
	seed := fl.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	secs := fl.Int("seconds", 30, "length of the measured window in seconds")
	traceFlag := fl.Int("trace", 0, "1 records spans and prints per-layer metrics instead of end-to-end ones")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *secs < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload router-radix|clos-net|figure-service, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	// Every thread count in the benchmark is capped at the CPUs this
	// process may use: GOMAXPROCS, sweep pools, shard workers and client
	// connections all read r.procs.
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)

	fp := fingerprint{
		Workload: *workload, Seed: *seed, Seconds: *secs, Trace: *traceFlag == 1,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: procs, CPU: cpuModel(),
		GoVersion: runtime.Version(), GitRev: gitRev(),
	}
	var err error
	if fp.SourceHash, err = sourceHash("."); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	r := &run{
		workload: *workload, seed: *seed, procs: procs,
		measure: time.Duration(*secs) * time.Second,
		trace:   newTracer(*traceFlag == 1),
		metrics: map[string]float64{},
	}
	stopHeap := sampleLiveHeap()
	err = drive(r)
	r.set("peak_heap_mb", stopHeap())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if r.attempted == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s checked no output\n", *workload)
		return 1
	}
	r.set("bench.fail_frac", float64(r.failed)/float64(r.attempted))

	// Per-operation costs read at the reference host speed (see stat.go).
	fp.HostSpeed = r.speed()
	for _, d := range endToEnd {
		if !hostScaled[d.Name] {
			continue
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s measured %.6g %s, at reference speed %.6g\n",
			d.Name, r.metrics[d.Name], d.Unit, r.metrics[d.Name]*fp.HostSpeed)
		r.metrics[d.Name] *= fp.HostSpeed
	}

	defs := endToEnd
	if fp.Trace {
		defs = perLayer
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed%d.jsonl", *workload, *seed))
		if err := writeTrace(path, fp, r.trace.Spans()); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: trace written to %s\n", path)
		printLayerTimes(r.trace.Spans())
	}
	out, err := result(r, defs, fp.Trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fpLine, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", fpLine)
	fmt.Printf("%s\n", out)
	return 0
}

// printLayerTimes prints the traced self-time summed per layer, the span
// name up to its first "/", largest first.
func printLayerTimes(spans []Span) {
	byLayer := map[string]time.Duration{}
	for name, lt := range SelfTimes(spans) {
		layer, _, _ := strings.Cut(name, "/")
		byLayer[layer] += lt.Self
	}
	names := make([]string, 0, len(byLayer))
	for n := range byLayer {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byLayer[names[i]] > byLayer[names[j]] })
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "perfbench: self-time %-40s %10.3f s\n", n, byLayer[n].Seconds())
	}
}

// result renders the final JSON line. Every end-to-end metric must have
// been measured; a per-layer metric the workload never exercises is
// printed as 0 (README.md lists which layers each workload reaches).
func result(r *run, defs []metricDef, traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("%s did not measure %s", r.workload, d.Name)
		}
		ms[d.Name] = value{v, d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitRev is the VCS revision the toolchain stamped into the binary, or
// "none" when it was built outside a git checkout; source_sha256 then
// identifies the source instead.
func gitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "none"
}

// sourceHash digests every Go source and go.mod under root (the
// repository checkout), skipping the build directory.
func sourceHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hash sources: %w", err)
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", fmt.Errorf("hash sources: %w", err)
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// sampleLiveHeap polls the heap the last GC marked live, every 5ms
// until stop is called, and returns the largest value in MiB.
// Unlike resident memory, which depends on when collections happen to
// run, the live heap at a mark repeats from run to run; over the many
// collections of a run its maximum is the workload's peak footprint.
func sampleLiveHeap() (stop func() float64) {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	read := func() {
		metrics.Read(sample)
		if sample[0].Value.Kind() == metrics.KindUint64 {
			peak = max(peak, sample[0].Value.Uint64())
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		read()
		return float64(peak) / (1 << 20)
	}
}
