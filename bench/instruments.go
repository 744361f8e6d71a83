package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tsens/internal/serve/wal"
)

// countingFS is the WAL filesystem of a traced durable run: the real OS
// filesystem, with every Write and Sync counted and timed while on is set.
// It measures the WAL from outside, where the bytes reach the file system.
type countingFS struct {
	wal.OSFS
	on    *atomic.Bool
	spans *spanLog

	mu    sync.Mutex
	bytes int64
	syncs []time.Duration
}

func (f *countingFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	file, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: file, fs: f}, nil
}

func (f *countingFS) OpenDir(name string) (wal.File, error) {
	file, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: file, fs: f}, nil
}

type countingFile struct {
	*os.File
	fs *countingFS
}

func (c *countingFile) Write(b []byte) (int, error) {
	n, err := c.File.Write(b)
	if c.fs.on.Load() {
		c.fs.mu.Lock()
		c.fs.bytes += int64(n)
		c.fs.mu.Unlock()
	}
	return n, err
}

func (c *countingFile) Sync() error {
	if !c.fs.on.Load() {
		return c.File.Sync()
	}
	start := time.Now()
	err := c.File.Sync()
	end := time.Now()
	c.fs.spans.add("wal.fsync", 0, 0, start, end)
	c.fs.mu.Lock()
	c.fs.syncs = append(c.fs.syncs, end.Sub(start))
	c.fs.mu.Unlock()
	return err
}

// stats returns the bytes written and the fsync latencies counted so far.
func (f *countingFS) stats() (bytes int64, syncs []time.Duration) {
	if f == nil {
		return 0, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bytes, append([]time.Duration(nil), f.syncs...)
}

// scrape is one GET /metrics exposition: every sample line's value, keyed
// by its name and labels as written.
type scrape map[string]float64

func parseScrape(text []byte) scrape {
	s := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		s[line[:i]] = v
	}
	return s
}

// family returns the sum of the family's series whose labels contain
// match ("" matches all).
func (s scrape) family(name, match string) float64 {
	var sum float64
	for k, v := range s {
		fam, labels := splitSample(k)
		if fam == name && strings.Contains(labels, match) {
			sum += v
		}
	}
	return sum
}

func splitSample(k string) (name, labels string) {
	if i := strings.IndexByte(k, '{'); i >= 0 {
		return k[:i], k[i:]
	}
	return k, ""
}

// hist is the difference of one histogram family between two scrapes,
// summed over its label series: the observations made in between.
type hist struct {
	bounds []float64 // upper bucket edges; the last is +Inf
	counts []float64 // observations per bucket
	sum    float64
	count  float64
}

// histBetween differences the histogram family name between scrapes a and
// b over the series whose labels contain match.
func histBetween(a, b scrape, name, match string) hist {
	cum := func(s scrape) map[float64]float64 {
		out := map[float64]float64{}
		for k, v := range s {
			fam, labels := splitSample(k)
			if fam != name+"_bucket" || !strings.Contains(labels, match) {
				continue
			}
			i := strings.Index(labels, `le="`)
			if i < 0 {
				continue
			}
			le := labels[i+4:]
			le = le[:strings.IndexByte(le, '"')]
			bound := math.Inf(1)
			if le != "+Inf" {
				f, err := strconv.ParseFloat(le, 64)
				if err != nil {
					continue
				}
				bound = f
			}
			out[bound] += v
		}
		return out
	}
	ca, cb := cum(a), cum(b)
	var h hist
	for bound := range cb {
		h.bounds = append(h.bounds, bound)
	}
	sort.Float64s(h.bounds)
	prev := 0.0
	for _, bound := range h.bounds {
		c := cb[bound] - ca[bound]
		h.counts = append(h.counts, c-prev)
		prev = c
	}
	h.sum = b.family(name+"_sum", match) - a.family(name+"_sum", match)
	h.count = b.family(name+"_count", match) - a.family(name+"_count", match)
	return h
}

// quantile estimates the q-quantile by linear interpolation within the
// containing bucket, as the registry's own quantiles do; observations in
// the overflow bucket report the largest finite edge.
func (h hist) quantile(q float64) float64 {
	var total float64
	for _, c := range h.counts {
		total += c
	}
	if total <= 0 {
		return 0
	}
	r := q * total
	var cum float64
	for i, bound := range h.bounds {
		n := h.counts[i]
		if math.IsInf(bound, 1) {
			break
		}
		if cum+n >= r && n > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			return lo + (bound-lo)*(r-cum)/n
		}
		cum += n
	}
	for i := len(h.bounds) - 1; i >= 0; i-- {
		if !math.IsInf(h.bounds[i], 1) {
			return h.bounds[i]
		}
	}
	return 0
}

// lowerEdge returns the lower edge of the bucket holding the q-quantile:
// the least the quantile can be, given the bucket resolution.
func (h hist) lowerEdge(q float64) float64 {
	var total float64
	for _, c := range h.counts {
		total += c
	}
	r := q * total
	var cum float64
	for i, n := range h.counts {
		if cum+n >= r && n > 0 {
			if i == 0 {
				return 0
			}
			return h.bounds[i-1]
		}
		cum += n
	}
	return 0
}

func (h hist) mean() float64 {
	if h.count <= 0 {
		return 0
	}
	return h.sum / h.count
}

// usage is a snapshot of process-wide resource counters.
type usage struct {
	at      time.Time
	cpu     time.Duration // process user + system CPU
	gcCPU   float64       // Go runtime: GC CPU seconds
	busyCPU float64       // Go runtime: non-idle CPU seconds
	alloc   uint64        // bytes allocated since start
}

var usageSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

var usageMu sync.Mutex

func takeUsage() usage {
	u := usage{at: time.Now()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	usageMu.Lock()
	defer usageMu.Unlock()
	metrics.Read(usageSamples)
	val := func(i int) float64 {
		switch usageSamples[i].Value.Kind() {
		case metrics.KindFloat64:
			return usageSamples[i].Value.Float64()
		case metrics.KindUint64:
			return float64(usageSamples[i].Value.Uint64())
		}
		return 0
	}
	u.gcCPU = val(0)
	u.busyCPU = val(1) - val(2)
	u.alloc = uint64(val(3))
	return u
}

// liveHeap collects garbage and returns the bytes of live heap objects.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
