package main

import (
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machines this benchmark runs on are shared: as other tenants load a
// machine, the same code runs up to twice as slowly for minutes at a time,
// which moves every timing of an unchanged program by more than any useful
// bound. So the benchmark times a fixed piece of its own work, the
// reference, beside every phase it measures, and reports each gated timing
// scaled to a machine on which the reference takes refNominalMS: as
// measured × refNominalMS ÷ the phase's reference time. The program under
// test never runs the reference, so a change to the program does not move
// it, while a machine running slower moves the reference and the timing
// alike. Raw timings are printed beside the scaled ones.
const refNominalMS = 2.0

// refQuantile is the percentile (per mille) of a phase's reference timings
// that stands for the machine's speed in that phase: the lower quartile,
// because the reference runs beside the program's own goroutines in the
// serving workloads and is sometimes slowed by them.
const refQuantile = 250

// The reference's sizes: a hash map, a sort and strided memory traffic,
// the three kinds of work the engine's relation kernels do.
const (
	refMapInserts = 1 << 14
	refMapKeys    = 1 << 16
	refSortLen    = 1 << 13
	refBufLen     = 1 << 20 // 8 MB, beyond the caches
	refStride     = 21
)

// refKernel holds the reference's buffers, so that running it allocates
// nothing and never waits on the program's garbage collector.
type refKernel struct {
	m    map[int64]int64
	s    []int64
	buf  []int64
	sink int64
}

func newRefKernel() *refKernel {
	k := &refKernel{m: make(map[int64]int64, refMapKeys), s: make([]int64, refSortLen), buf: make([]int64, refBufLen)}
	k.run() // grows the map to its final size
	return k
}

// run does the reference work once.
func (k *refKernel) run() {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	clear(k.m)
	for i := 0; i < refMapInserts; i++ {
		k.m[int64(next()%refMapKeys)] += int64(i)
	}
	for i := range k.s {
		k.s[i] = int64(next())
	}
	slices.Sort(k.s)
	var acc int64
	for i := 0; i < len(k.buf); i += refStride {
		k.buf[i] += int64(i) ^ acc
		acc += k.buf[(i*31)%len(k.buf)]
	}
	k.sink += acc + k.s[0] + int64(len(k.m))
}

// measure runs the reference once and returns its time in ms: the calling
// thread's time on a CPU, so that waiting for a CPU the program holds does
// not count, or wall time where the kernel does not report it.
func (k *refKernel) measure() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, ok := threadCPU()
	t0 := time.Now()
	k.run()
	wall := time.Since(t0)
	if c1, ok1 := threadCPU(); ok && ok1 && c1 > c0 {
		return float64(c1-c0) / float64(time.Millisecond)
	}
	return float64(wall) / float64(time.Millisecond)
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU reads the calling thread's time on a CPU, in ns. Unlike
// getrusage and /proc, this clock is exact to the call, not to the last
// scheduler tick.
func threadCPU() (int64, bool) {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano(), errno == 0
}

// refTimes collects one phase's reference timings, in ms.
type refTimes []float64

// refEvery is how often the reference runs beside a program that keeps
// running while it is timed.
const refEvery = 100 * time.Millisecond

// refSample is one timing of the reference.
type refSample struct {
	at time.Time // when the timing started
	ms float64
}

// refLoop times the reference every refEvery on its own goroutine until
// stopped.
type refLoop struct {
	stop    chan struct{}
	done    chan []refSample
	once    sync.Once
	samples []refSample
}

func startRefLoop(k *refKernel) *refLoop {
	l := &refLoop{stop: make(chan struct{}), done: make(chan []refSample, 1)}
	go func() {
		t := time.NewTicker(refEvery)
		defer t.Stop()
		r := []refSample{{time.Now(), k.measure()}}
		for {
			select {
			case <-l.stop:
				l.done <- r
				return
			case now := <-t.C:
				r = append(r, refSample{now, k.measure()})
			}
		}
	}()
	return l
}

// end stops the loop and waits for it; later calls do nothing.
func (l *refLoop) end() {
	l.once.Do(func() {
		close(l.stop)
		l.samples = <-l.done
	})
}

// between returns the timings the loop started in [from, to); call it
// after end.
func (l *refLoop) between(from, to time.Time) refTimes {
	var r refTimes
	for _, s := range l.samples {
		if !s.at.Before(from) && s.at.Before(to) {
			r = append(r, s.ms)
		}
	}
	return r
}

// scale returns the factor that turns a time measured in the phase into
// the nominal machine's (1 when there are no timings).
func (r refTimes) scale() float64 {
	if len(r) == 0 {
		return 1
	}
	return refNominalMS / newDist(r).pct(refQuantile)
}

// ms is the phase's reference time.
func (r refTimes) ms() float64 { return newDist(r).pct(refQuantile) }

// The reference measures how fast the machine runs the benchmark while it
// runs it. It cannot see the other way a shared virtual machine slows down:
// the hypervisor giving its CPUs to other machines while this one has work
// to run (steal). For minutes at a time, that can take most of the CPU
// time; an open-loop workload then falls behind its schedule and its
// latency grows by a hundred times, and every set-up takes twice as long.
// So a run measures the steal, and a workload run during which more than
// maxStealShare of the machine's CPU time was stolen is repeated (main.go).
// In ordinary runs the steal stays below 1%.
const maxStealShare = 0.05

// machineTimes is the machine's CPU time from /proc/stat in clock ticks:
// all of it, and the part stolen by the hypervisor.
type machineTimes struct{ total, steal uint64 }

// readMachineTimes reads /proc/stat; ok is false where there is none.
func readMachineTimes() (machineTimes, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return machineTimes{}, false
	}
	return parseMachineTimes(string(data))
}

// parseMachineTimes reads the aggregate cpu line of a /proc/stat text (user
// nice system idle iowait irq softirq steal …).
func parseMachineTimes(stat string) (t machineTimes, ok bool) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return t, false
	}
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return machineTimes{}, false
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// stealShare is the share of the machine's CPU time from a to b that was
// stolen.
func stealShare(a, b machineTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
