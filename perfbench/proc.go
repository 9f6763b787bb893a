package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	kb, ok := procStatusKB("VmHWM:")
	if !ok {
		return 0
	}
	return kb / 1024
}

// resetPeakRSS restarts the process's VmHWM at its current resident set
// (Linux 4.0 and later), so the next peakRSSMB reads the peak since now.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func procStatusKB(field string) (float64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			fs := strings.Fields(rest)
			if len(fs) == 0 {
				return 0, false
			}
			v, err := strconv.ParseFloat(fs[0], 64)
			return v, err == nil
		}
	}
	return 0, false
}

// stealSeconds is the host's cumulative steal time across all CPUs, from
// the aggregate line of /proc/stat (USER_HZ is 100 on Linux).
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fs := strings.Fields(line)
	if len(fs) < 9 || fs[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(fs[8], 64)
	if err != nil {
		return 0
	}
	return v / 100
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// goCounters is a snapshot of the Go runtime's allocation and GC CPU.
type goCounters struct {
	allocBytes uint64
	gcCPU      float64
}

func readGoCounters() goCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	g := goCounters{allocBytes: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[0].Value.Float64()
	}
	return g
}

// since returns the allocation (MB) and GC CPU (s) between g0 and now.
func (g0 goCounters) since() (allocMB, gcCPU float64) {
	g := readGoCounters()
	return float64(g.allocBytes-g0.allocBytes) / (1 << 20), g.gcCPU - g0.gcCPU
}
