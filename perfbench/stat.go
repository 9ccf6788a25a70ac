package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// timed runs fn and returns its wall-clock duration.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// cpuNow is the CPU time the process has used, user plus system, over
// all its threads. On a virtual machine the guest kernel leaves time the
// hypervisor stole out of it, while wall-clock includes every steal; on
// the shared hosts this benchmark runs on, steal makes wall-clock of the
// same work vary threefold within seconds.
func cpuNow() time.Duration { return clockNow(2) } // CLOCK_PROCESS_CPUTIME_ID

// threadCPUNow is the CPU time the calling OS thread has used.
func threadCPUNow() time.Duration { return clockNow(3) } // CLOCK_THREAD_CPUTIME_ID

func clockNow(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", errno))
	}
	return time.Duration(ts.Nano())
}

// A wallClock reads wall-clock time less the time the hypervisor stole
// from the machine's CPUs meanwhile. Unlike CPU time it includes the
// time a parallel job spends idle at barriers, behind an uneven split of
// work or queued, so it shows a change in parallel efficiency; taking
// out steal keeps the hypervisor's bursts out of it. Steal is the steal
// column of /proc/stat summed over every CPU, in USER_HZ (1/100 s)
// ticks, and is assumed to fall evenly on the CPUs: the wall-clock lost
// to it is the sum divided by the CPU count. Without /proc/stat it reads
// plain wall-clock.
type wallClock struct {
	t0    time.Time
	steal time.Duration
}

func startWall() wallClock {
	steal, _ := stealNow()
	return wallClock{time.Now(), steal}
}

func (c wallClock) elapsed() time.Duration {
	d := time.Since(c.t0)
	steal, cpus := stealNow()
	if cpus == 0 {
		return d
	}
	return d - (steal-c.steal)/time.Duration(cpus)
}

// stealNow returns the steal time summed over the machine's CPUs, and
// the number of CPUs /proc/stat lists (0 when it cannot be read).
func stealNow() (time.Duration, int) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	var steal time.Duration
	cpus := 0
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") {
			continue
		}
		if f[0] == "cpu" {
			ticks, err := strconv.ParseInt(f[8], 10, 64)
			if err != nil {
				return 0, 0
			}
			steal = time.Duration(ticks) * 10 * time.Millisecond
		} else {
			cpus++
		}
	}
	return steal, cpus
}

// cpuTimed runs fn and returns the CPU time the process used meanwhile.
func cpuTimed(fn func()) time.Duration {
	c0 := cpuNow()
	fn()
	return cpuNow() - c0
}

// A workload repeats its set-up at least setupReps times, and a cheap
// set-up until the repetitions have used setupMinCPU, at most
// setupMaxReps times: a median over a handful of sub-millisecond samples
// moves with every background wake-up of the process.
const (
	setupReps    = 5
	setupMaxReps = 200
	setupMinCPU  = 100 * time.Millisecond
)

// medianSetup repeats a workload's set-up, each time from a freshly
// collected heap with its free memory returned to the OS, so neither the
// previous repetition's garbage nor the runtime's background scavenging
// lands on the next, and returns the median CPU time in seconds. A
// non-nil teardown returned by setup runs untimed after each repetition.
func medianSetup(r *run, setup func() (teardown func() error, err error)) (float64, error) {
	r.calibrate()
	var ts []float64
	var total time.Duration
	for len(ts) < setupReps || total < setupMinCPU && len(ts) < setupMaxReps {
		debug.FreeOSMemory()
		var teardown func() error
		var err error
		d := cpuTimed(func() { teardown, err = setup() })
		if err == nil && teardown != nil {
			err = teardown()
		}
		if err != nil {
			return 0, err
		}
		total += d
		ts = append(ts, seconds(d))
	}
	r.calibrate()
	return median(ts), nil
}

// splitmix64 derives independent seeds from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// interleave alternates two kinds of measured work until end, running
// whichever has had less time so far, so each gets about half the window
// and both are sampled across all of it: host speed drifts over seconds,
// and a median of samples from one stretch would carry that stretch's
// speed. Each runs at least twice, past end if need be. A calibration
// sample precedes each piece of work.
func interleave(r *run, end time.Time, a, b func()) {
	var ta, tb time.Duration
	na, nb := 0, 0
	for {
		r.calibrate()
		runA := ta <= tb
		if !time.Now().Before(end) {
			if na >= 2 && nb >= 2 {
				return
			}
			runA = na < 2
		}
		if runA {
			ta += timed(a)
			na++
		} else {
			tb += timed(b)
			nb++
		}
	}
}

// Host speed calibration. On a shared host the same work takes from 1x
// to over 1.5x the CPU time from one minute to the next, as neighbours
// contend for caches, memory and clock. A run therefore also times a
// fixed kernel that belongs to the benchmark, not to the program, many
// times across its window, and scales its per-operation CPU costs
// (hostScaled) by calibrationRef ÷ the kernel's median time: they read
// as CPU time at one reference speed. The kernel chases a pseudo-random chain through a
// 4 MiB table with integer work at each step, the same mix of dependent
// loads and arithmetic the simulator runs. Its code belongs to the
// benchmark and it is timed on its own thread's CPU clock, so a program
// change reaches it only through what the program leaves running beside
// it, such as cache and memory traffic from collections still under way.

// calibrationRef is the kernel's CPU time at the reference speed, near
// its median on the 2-CPU x86 VM the bounds were set on.
const calibrationRef = 25 * time.Millisecond

var calibrationTable = func() []uint32 {
	t := make([]uint32, 1<<20)
	x := uint32(1)
	for i := range t {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t[i] = x
	}
	return t
}()

// calibrationKernel runs the fixed kernel once and returns its CPU time.
// The kernel runs on a locked OS thread and reads that thread's clock,
// so GC workers and pool goroutines still busy with the program's last
// piece of work are not charged to it.
func calibrationKernel() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPUNow()
	var idx, acc uint32
	for i := 0; i < 500_000; i++ {
		v := calibrationTable[idx&(1<<20-1)]
		acc += v * 2654435761
		if acc&1 == 0 {
			acc ^= v >> 3
		}
		idx = v ^ acc
	}
	sink += int(acc)
	return threadCPUNow() - c0
}
