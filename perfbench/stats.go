package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocSample reads the cumulative heap-object allocation count (the
// runtime/metrics view of MemStats.Mallocs, readable without stopping
// the world).
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func mallocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// peakRSSMB is VmHWM of this process in MiB.
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

// meter accumulates per-operation wall time, CPU time and allocations,
// taken around the operation call only, so the benchmark's own result
// checking between operations is not charged to the system.
type meter struct {
	lat    []float64 // per-operation wall ms
	wall   time.Duration
	cpu    time.Duration
	allocs uint64
}

// measure runs f once and charges it to the meter.
func (m *meter) measure(f func()) {
	c0, a0 := cpuTime(), mallocs()
	t0 := time.Now()
	f()
	d := time.Since(t0)
	m.cpu += cpuTime() - c0
	m.allocs += mallocs() - a0
	m.wall += d
	m.lat = append(m.lat, ms(d))
}

func (m *meter) ops() int { return len(m.lat) }
