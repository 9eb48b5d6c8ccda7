package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"ndpipe/internal/telemetry"
)

// quantile returns the q-quantile of xs by nearest rank on a sorted copy
// (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle value (mean of the two middle values for an even
// count), so a two-sample median is not biased to either side.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailQuantile is the highest of the standard tail percentiles (p99, p95,
// p90, p75) that still leaves at least ten samples above it; below 44
// samples it falls back to the median.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.90, 0.75} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

// cpuSeconds is the process's user+system CPU time (getrusage).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// counter reads a counter of the process-wide registry the program's
// packages instrument into.
func counter(name string) int64 { return telemetry.Default.Counter(name).Value() }

// histo is a (count, sum) reading of a registry histogram; the difference
// of two readings gives the observations made between them.
type histo struct {
	n   uint64
	sum float64
}

func readHisto(name string) histo {
	h := telemetry.Default.Histogram(name)
	return histo{n: h.Count(), sum: h.Sum()}
}

func (h histo) sub(o histo) histo { return histo{n: h.n - o.n, sum: h.sum - o.sum} }

// mean is the average observation (0 when there were none).
func (h histo) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// pct is 100·a/b, or 0 when b is 0.
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * a / b
}

// gcReading is the Go runtime's GC count and total pause.
type gcReading struct {
	cycles  uint32
	pauseMs float64
}

func readGC() gcReading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcReading{cycles: ms.NumGC, pauseMs: float64(ms.PauseTotalNs) / 1e6}
}

func (g gcReading) sub(o gcReading) gcReading {
	return gcReading{cycles: g.cycles - o.cycles, pauseMs: g.pauseMs - o.pauseMs}
}
