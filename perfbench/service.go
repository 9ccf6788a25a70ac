package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"highradix"
	"highradix/internal/cache"
	"highradix/internal/experiments"
	"highradix/internal/serve"
)

// The figure-service workload: an open loop against serve.New(...).Handler()
// behind a loopback HTTP listener, from at most nproc connections. Each
// episode starts a fresh server on an empty cache directory, requests
// the Quick fig9 and fig_alloc figures cold, then sends /points requests
// on a seeded fixed-rate schedule whose (architecture, load) keys follow
// a Zipf law, so some are first touches (simulate and Put) and the rest
// are hits (Get), with warm figure requests mixed in. A cost phase ends
// each episode: a fixed set of keys requested one at a time, cold and
// then warm, whose CPU time per request gives the end-to-end costs. The
// cache is written and read under serve admission and the sweep pool.
// README.md gives the reason for each parameter below.

var serviceFigures = []string{"fig9", "fig_alloc"}

// serviceArchs are the architectures the service can simulate by name.
var serviceArchs = []string{"baseline", "buffered", "hierarchical", "voq", "dynvc", "sharedxp"}

// Point keys use the Quick load grid the figures themselves sweep, from
// light load up to near saturation, shifted by keyOffset: up for the
// open loop and down for the cost phase. The shift keeps every key off
// the figures' points and the two sets apart, so each key is cold the
// first time an episode asks for it.
const keyOffset = 0.005

func shiftedLoads(by float64) []float64 {
	loads := make([]float64, len(experiments.Quick.Loads))
	for i, l := range experiments.Quick.Loads {
		loads[i] = l + by
	}
	return loads
}

const (
	serviceRate    = 100 // nominal requests per second
	serviceZipfS   = 0.8 // Zipf exponent of key popularity
	figureEvery    = 25  // every figureEvery-th request is a warm figure
	sampleChecks   = 4   // /points bodies per episode re-simulated in process
	serviceTimeout = 60 * time.Second
)

// service is one running figure server on its own cache directory.
type service struct {
	dir   string
	store *cache.Store
	srv   *serve.Server
	http  *http.Server
	base  string
	done  chan error
}

func serviceScale(store *cache.Store, procs int) experiments.Scale {
	s := experiments.Quick
	s.Workers = procs
	s.Cache = store
	return s
}

// emptyDir replaces dir, if it exists, with an empty directory.
func emptyDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}

// startService opens the cache on dir, which emptyDir made, and starts
// a server behind it.
func startService(dir string, procs int) (*service, error) {
	store, err := cache.Open(dir)
	if err != nil {
		return nil, err
	}
	// nproc - 1 cold slots, at least one. serve sends every /points
	// request through a slot, warm ones included, so a hit can wait
	// behind a running miss.
	srv := serve.New(serve.Config{Scale: serviceScale(store, procs), MaxInflight: max(1, procs-1), Timeout: serviceTimeout})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir, store: store, srv: srv, http: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the server down, waits for every cold computation it
// abandoned to finish, and removes the cache directory.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), serviceTimeout)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	for s.srv.Metrics().Inflight > 0 || s.store.Counters().Inflight > 0 {
		time.Sleep(time.Millisecond)
	}
	return errors.Join(err, os.RemoveAll(s.dir))
}

// pointKey is one /points key.
type pointKey struct {
	arch string
	load float64
}

func (k pointKey) path() string {
	return "/points?arch=" + k.arch + "&load=" + strconv.FormatFloat(k.load, 'g', -1, 64)
}

// options mirrors how the service turns a point key into a simulation,
// so a body can be checked against an in-process run and its cache
// entry can be probed directly.
func (k pointKey) options(s experiments.Scale) (highradix.SimOptions, error) {
	a, err := highradix.ArchByName(k.arch)
	if err != nil {
		return highradix.SimOptions{}, err
	}
	return highradix.SimOptions{
		Router:        highradix.RouterConfig{Arch: a},
		Load:          k.load,
		WarmupCycles:  s.Warmup,
		MeasureCycles: s.Measure,
		Seed:          s.Seed,
		Injection:     s.Injection,
	}, nil
}

// schedule is one episode's generated requests: key[i] is the point key
// of request i, or nil for a figure request.
type schedule struct {
	reqs []request
	keys []*pointKey
}

// makeSchedule draws n requests at rate per second from a Zipf law over
// the key space: the key of popularity rank i is drawn with probability
// proportional to 1/i^serviceZipfS. The popularity ranking is a fixed
// shuffle, part of the workload's definition, so every seed misses on
// keys of the same mix of simulation costs; the seed draws the request
// sequence.
func makeSchedule(seed uint64, n int, rate float64) schedule {
	var space []pointKey
	for _, a := range serviceArchs {
		for _, l := range shiftedLoads(keyOffset) {
			space = append(space, pointKey{a, l})
		}
	}
	rank := rand.New(rand.NewPCG(0x6b657973, 0x72616e6b))
	rank.Shuffle(len(space), func(i, j int) { space[i], space[j] = space[j], space[i] })
	cdf := make([]float64, len(space))
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -serviceZipfS)
		cdf[i] = sum
	}
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	var sc schedule
	for i := 0; i < n; i++ {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		if i%figureEvery == figureEvery-1 {
			fig := serviceFigures[(i/figureEvery)%len(serviceFigures)]
			sc.reqs = append(sc.reqs, request{"/figures/" + fig, due})
			sc.keys = append(sc.keys, nil)
			continue
		}
		k := space[min(sort.SearchFloat64s(cdf, rng.Float64()*sum), len(space)-1)]
		sc.reqs = append(sc.reqs, request{k.path(), due})
		sc.keys = append(sc.keys, &k)
	}
	return sc
}

// episodeStats pools, in µs, the classified latencies of the open loop
// and the per-request CPU cost of the cost phase.
type episodeStats struct {
	hits, misses, lag, client []float64
	hitCPU, missCPU           []float64
	points                    int // /points requests in the open loops
}

// costKeys are the point keys of the cost phase, the same for every seed
// and every episode, so the cost of a miss is averaged over one fixed mix
// of architectures and loads: every architecture at every Quick load,
// shifted down by keyOffset.
func costKeys() []pointKey {
	var ks []pointKey
	for _, a := range serviceArchs {
		for _, l := range shiftedLoads(-keyOffset) {
			ks = append(ks, pointKey{a, l})
		}
	}
	return ks
}

// costHitReps is how many times the cost phase re-requests each key once
// it is warm.
const costHitReps = 5

// costPhase sends the cost keys one at a time, first cold and then warm
// costHitReps times, and records the process CPU time per request of
// each pass: the client, the HTTP stack, the handler, the cache and, for
// a miss, the simulation. One request at a time keeps contention out of
// the cost. Bodies are checked after each pass, outside the timing.
func costPhase(r *run, client *http.Client, svc *service, st *episodeStats) {
	scale := serviceScale(nil, r.procs)
	keys := costKeys()
	first := make([][]byte, len(keys))
	bodies := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	for rep := 0; rep <= costHitReps; rep++ {
		c0 := cpuNow()
		for i, k := range keys {
			bodies[i], errs[i] = get(client, svc.base+k.path())
		}
		per := micros(cpuNow()-c0) / float64(len(keys))
		if rep == 0 {
			st.missCPU = append(st.missCPU, per)
		} else {
			st.hitCPU = append(st.hitCPU, per)
		}
		for i, k := range keys {
			err := errs[i]
			switch {
			case err != nil:
			case rep == 0:
				first[i] = bodies[i]
				if i%len(serviceArchs) == 0 {
					err = checkPoint(k, scale, bodies[i])
				}
			case !bytes.Equal(bodies[i], first[i]):
				err = fmt.Errorf("GET %s: body differs from the key's first response", k.path())
			}
			r.check(err)
		}
	}
}

// episodeSeconds is the length of one episode. Each episode starts a
// fresh server on an empty cache directory, requests the two figures
// cold, runs the open loop, then the cost phase, so every kind of
// request is sampled across the whole window, not only its start.
const episodeSeconds = 3

func figureService(r *run) error {
	root := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("service-%d", os.Getpid()))
	defer os.RemoveAll(root)
	// The open loop takes about half an episode; the cold figures and
	// the cost phase share the rest. The goldens and every episode's
	// schedule belong to the benchmark and are made first, untimed.
	episodes := max(2, int(r.measure.Seconds())/episodeSeconds)
	n := int(0.5 * episodeSeconds * serviceRate)
	g, err := loadGoldens(goldenDir, serviceFigures...)
	if err != nil {
		return err
	}
	var schedules []schedule
	for e := 0; e < episodes; e++ {
		schedules = append(schedules, makeSchedule(splitmix64(r.seed+uint64(e)), n, serviceRate))
	}
	// Set-up opens the cache on an empty directory and starts a server
	// behind it. Making the directory, and stopping the server again, are
	// not timed: on ext4 that one mkdir took from 40 µs to 500 µs,
	// depending on the process, against about 100 µs for all the rest.
	setupDir := filepath.Join(root, "setup")
	if err := emptyDir(setupDir); err != nil {
		return err
	}
	setup, err := medianSetup(r, func() (func() error, error) {
		svc, err := startService(setupDir, r.procs)
		if err != nil {
			return nil, err
		}
		return func() error { return errors.Join(svc.stop(), emptyDir(setupDir)) }, nil
	})
	if err != nil {
		return err
	}
	r.set("setup_s", setup)
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: r.procs, MaxIdleConnsPerHost: r.procs},
		Timeout:   serviceTimeout,
	}
	defer client.CloseIdleConnections()

	var (
		st        episodeStats
		figs      []float64
		figTimes  = map[string][]float64{}
		m         serve.Metrics
		counters  cache.Counters
		peak      int64
		written   int64
		traceCost time.Duration
	)
	t0 := time.Now()
	for e := 0; e < episodes; e++ {
		dir := filepath.Join(root, fmt.Sprintf("ep%d", e))
		if err := emptyDir(dir); err != nil {
			return err
		}
		svc, err := startService(dir, r.procs)
		if err != nil {
			return err
		}
		r.calibrate()
		id := r.trace.Begin("bench.episode", 0)
		figs = append(figs, coldFigures(r, client, svc, g, id, figTimes))
		before, cBefore := svc.srv.Metrics(), svc.store.Counters()
		sc := schedules[e]
		r.calibrate()
		ep := runEpisode(r, client, svc, sc)
		// Handler time and store lookups of the open loop alone, to set
		// against the client's time for the same requests.
		after, cAfter := svc.srv.Metrics(), svc.store.Counters()
		m.Requests += after.Requests - before.Requests
		m.LatencyMicros += after.LatencyMicros - before.LatencyMicros
		counters.Hits += cAfter.Hits - cBefore.Hits
		counters.Misses += cAfter.Misses - cBefore.Misses
		traceCost += ep.record(r, sc, id)
		r.trace.End(id, int64(len(sc.reqs)))
		ep.classify(r, g, sc, &st)
		r.calibrate()
		costPhase(r, client, svc, &st)
		r.calibrate()

		peak = max(peak, ep.backlogPeak(sc))
		m.Timeouts += svc.srv.Metrics().Timeouts
		counters.Corrupt += svc.store.Counters().Corrupt
		written += dirBytes(svc.dir)
		if r.trace.on && e == episodes-1 {
			serviceProbes(r, client, svc, ep.keys)
		}
		if err := svc.stop(); err != nil {
			return err
		}
	}

	r.set("figures_s", median(figs))
	for _, name := range serviceFigures {
		r.set("experiments."+name+"_s", median(figTimes[name]))
	}
	r.set("op_small_us", median(st.hitCPU))
	r.set("op_large_us", median(st.missCPU))
	r.set("serve.hit_p50_us", median(st.hits))
	r.set("serve.miss_p50_ms", median(st.misses)/1e3)
	r.set("serve.hit_p99_us", quantile(st.hits, 0.99))
	r.set("serve.miss_p99_ms", quantile(st.misses, 0.99)/1e3)
	r.set("bench.gen_lag_p99_ms", quantile(st.lag, 0.99)/1e3)
	r.set("bench.trace_overhead_frac", traceCost.Seconds()/time.Since(t0).Seconds())
	if m.Requests > 0 {
		handler := float64(m.LatencyMicros) / float64(m.Requests)
		r.set("serve.handler_us", handler)
		r.set("serve.transport_us", mean(st.client)-handler)
	}
	r.set("serve.inflight_peak", float64(peak))
	r.set("serve.timeouts", float64(m.Timeouts))
	if counters.Hits+counters.Misses > 0 {
		r.set("cache.hit_ratio", float64(counters.Hits)/float64(counters.Hits+counters.Misses))
	}
	r.set("cache.bytes_written", float64(written))
	r.set("cache.corrupt", float64(counters.Corrupt))
	fmt.Fprintf(os.Stderr, "figure-service: %d episodes, cold figures %.3f s; CPU per hit %.0f us, per miss %.0f us; open loop: %d /points, %.1f%% first touches; %d hits p50 %.0f us p99 %.0f us, %d misses p50 %.2f ms p99 %.2f ms; backlog peak %d\n",
		episodes, median(figs), median(st.hitCPU), median(st.missCPU), st.points, 100*float64(len(st.misses))/float64(max(1, st.points)),
		len(st.hits), median(st.hits), quantile(st.hits, 0.99), len(st.misses), median(st.misses)/1e3, quantile(st.misses, 0.99)/1e3, peak)
	return nil
}

// coldFigures requests each figure once from the empty cache, checks
// the bodies against the goldens and returns the total time by
// wallClock: the server computes them on its sweep pool, so its idle
// time belongs to their cost.
func coldFigures(r *run, client *http.Client, svc *service, g goldens, parent int, times map[string][]float64) float64 {
	var total time.Duration
	for _, name := range serviceFigures {
		id := r.trace.Begin("serve.GET /figures/"+name+" (cold)", parent)
		c := startWall()
		body, err := get(client, svc.base+"/figures/"+name)
		d := c.elapsed()
		r.trace.End(id, 1)
		if err == nil {
			err = g.check(name, string(body))
		}
		r.check(err)
		total += d
		times[name] = append(times[name], seconds(d))
	}
	return seconds(total)
}

// get fetches url and returns its body; a status other than 200 is an
// error.
func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, err
}

// episode is the raw result of one open loop.
type episode struct {
	start time.Time
	out   []outcome
	keys  []pointKey // distinct point keys, in first-touch order
}

// runEpisode drives one schedule.
func runEpisode(r *run, client *http.Client, svc *service, sc schedule) episode {
	start, out := openLoop(client, svc.base, sc.reqs, r.procs)
	ep := episode{start: start, out: out}
	seen := map[pointKey]bool{}
	for _, k := range sc.keys {
		if k != nil && !seen[*k] {
			seen[*k] = true
			ep.keys = append(ep.keys, *k)
		}
	}
	return ep
}

// backlogPeak is the most requests that were due and not yet answered at
// one time: those waiting for a free client connection, for a cold slot,
// or being served.
func (ep episode) backlogPeak(sc schedule) int64 {
	type edge struct {
		at time.Duration
		d  int64
	}
	edges := make([]edge, 0, 2*len(ep.out))
	for i, o := range ep.out {
		edges = append(edges, edge{sc.reqs[i].due, 1}, edge{o.done, -1})
	}
	// At equal times an answer leaves before the next request counts.
	sort.Slice(edges, func(i, j int) bool {
		return edges[i].at < edges[j].at || edges[i].at == edges[j].at && edges[i].d < edges[j].d
	})
	var n, peak int64
	for _, e := range edges {
		n += e.d
		peak = max(peak, n)
	}
	return peak
}

// record adds one span per request after the loop has ended, so tracing
// never delays a request, and returns what recording cost.
func (ep episode) record(r *run, sc schedule, parent int) time.Duration {
	if !r.trace.on {
		return 0
	}
	return timed(func() {
		for i, o := range ep.out {
			name := "serve.GET /points"
			if sc.keys[i] == nil {
				name = "serve.GET /figures"
			}
			r.trace.Record(name, parent, ep.start.Add(o.sent), ep.start.Add(o.done), 1)
		}
	})
}

// classify checks every response and pools the latencies. A point
// request is a miss when it is its key's first in schedule order, a hit
// when that first request had completed before it was sent; one sent
// while the first was still computing joined that computation and is
// neither.
func (ep episode) classify(r *run, g goldens, sc schedule, st *episodeStats) {
	first := map[pointKey]int{}
	for i, k := range sc.keys {
		if k != nil {
			if _, ok := first[*k]; !ok {
				first[*k] = i
			}
		}
	}
	scale := serviceScale(nil, r.procs)
	checked := 0
	for i, o := range ep.out {
		due := sc.reqs[i].due
		lat := micros(o.latency(due))
		st.lag = append(st.lag, micros(o.sent-due))
		st.client = append(st.client, micros(o.done-o.sent))
		err := o.err
		if err == nil && o.status != http.StatusOK {
			err = fmt.Errorf("GET %s: status %d", sc.reqs[i].path, o.status)
		}
		k := sc.keys[i]
		if k != nil {
			st.points++
		}
		switch {
		case err != nil:
		case k == nil:
			err = g.check(path.Base(sc.reqs[i].path), string(o.body))
		case first[*k] == i:
			st.misses = append(st.misses, lat)
			if checked < sampleChecks {
				checked++
				err = checkPoint(*k, scale, o.body)
			}
		default:
			fo := ep.out[first[*k]]
			if !bytes.Equal(o.body, fo.body) {
				err = fmt.Errorf("GET %s: body differs from the key's first response", sc.reqs[i].path)
			} else if o.sent >= fo.done {
				st.hits = append(st.hits, lat)
			}
		}
		r.check(err)
	}
}

// checkPoint compares a /points body with an in-process Simulate of the
// same options; the service prints floats in shortest form, so parsing
// them back must give the simulated values exactly.
func checkPoint(k pointKey, s experiments.Scale, body []byte) error {
	o, err := k.options(s)
	if err != nil {
		return err
	}
	res, err := highradix.Simulate(o)
	if err != nil {
		return err
	}
	var got struct {
		Load, AvgLatency, P50, P99, Throughput float64
		Packets, Cycles                        int64
		Saturated                              bool
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("GET %s: %w", k.path(), err)
	}
	if got.Load != res.Load || got.AvgLatency != res.AvgLatency || got.P50 != res.P50 || got.P99 != res.P99 ||
		got.Throughput != res.Throughput || got.Packets != res.Packets || got.Cycles != res.Cycles ||
		got.Saturated != res.Saturated {
		return fmt.Errorf("GET %s: body %s differs from in-process Simulate %+v", k.path(), body, res)
	}
	return nil
}

// dirBytes is the size of every file under dir. A file that vanishes or
// cannot be read while it walks is left out of the sum.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// serviceProbes measures direct store Get and Put latency on the keys
// the last episode wrote, and the highest sustainable request rate.
func serviceProbes(r *run, client *http.Client, svc *service, keys []pointKey) {
	scale := serviceScale(nil, r.procs)
	scratch, err := cache.Open(filepath.Join(svc.dir, "..", "put-probe"))
	r.check(err)
	if err != nil {
		return
	}
	var gets, puts []float64
	for _, k := range keys {
		o, err := k.options(scale)
		if err != nil {
			r.check(err)
			continue
		}
		key, ok := o.CacheKey()
		if !ok {
			r.check(fmt.Errorf("point %s is not cacheable", k.path()))
			continue
		}
		id := r.trace.Begin("cache.Get", 0)
		t0 := time.Now()
		payload, hit := svc.store.Get(key)
		gets = append(gets, micros(time.Since(t0)))
		r.trace.End(id, 1)
		if !hit {
			r.check(fmt.Errorf("cache has no entry for served point %s", k.path()))
			continue
		}
		id = r.trace.Begin("cache.Put", 0)
		t0 = time.Now()
		err = scratch.Put(key, payload)
		puts = append(puts, micros(time.Since(t0)))
		r.trace.End(id, 1)
		r.check(err)
	}
	r.set("cache.get_us", median(gets))
	r.set("cache.put_us", median(puts))
	r.set("serve.max_rps", maxRate(r, client, svc))
}

// serviceLimit is the all-request p99 latency a sustainable rate must
// meet, and the most the last tenth of a probe may run late.
const (
	serviceLimit = 50 * time.Millisecond
	probeSeconds = 1.0
)

// maxRate finds the highest offered rate whose all-request p99 latency,
// timed from when each request was due, meets serviceLimit without a
// growing backlog. Rates double from 250 req/s until one fails, then four
// bisections narrow the bracket; a failed or non-200 request misses the
// limit.
func maxRate(r *run, client *http.Client, svc *service) float64 {
	probe := 0
	pass := func(rate float64) bool {
		probe++
		sc := makeSchedule(splitmix64(r.seed^uint64(probe)<<32), int(rate*probeSeconds), rate)
		id := r.trace.Begin(fmt.Sprintf("bench.rateProbe/%.0f", rate), 0)
		ep := runEpisode(r, client, svc, sc)
		r.trace.End(id, int64(len(sc.reqs)))
		lat := make([]float64, len(ep.out))
		var tail []float64
		for i, o := range ep.out {
			lat[i] = float64(o.latency(sc.reqs[i].due))
			if o.err != nil || o.status != http.StatusOK {
				lat[i] = math.Inf(1)
			}
			if i >= len(ep.out)*9/10 {
				tail = append(tail, float64(o.sent-sc.reqs[i].due))
			}
		}
		return quantile(lat, 0.99) <= float64(serviceLimit) && median(tail) <= float64(serviceLimit)
	}
	lo, hi := 0.0, 250.0
	for pass(hi) {
		lo, hi = hi, 2*hi
	}
	for i := 0; i < 4; i++ {
		mid := hi / 2
		if lo > 0 {
			mid = math.Sqrt(lo * hi)
		}
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
