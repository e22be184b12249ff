package main

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// kernelWorkers is W of the catalogue: every team, pool and daemon kernel
// runtime the benchmark builds has min(GOMAXPROCS, 4) workers.
func kernelWorkers() int {
	return min(runtime.GOMAXPROCS(0), 4)
}

// env records the machine next to the numbers.
type env struct {
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	W          int               `json:"w"`
	GoVersion  string            `json:"go_version"`
	GOARCH     string            `json:"goarch"`
	Commit     string            `json:"commit"`
	CPUModel   string            `json:"cpu_model"`
	Caches     map[string]string `json:"caches"`
}

func readEnv(w int) env {
	e := env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), W: w,
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH,
		Commit: "unknown", CPUModel: "unknown", Caches: map[string]string{},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level, err1 := os.ReadFile(filepath.Join(d, "level"))
		typ, err2 := os.ReadFile(filepath.Join(d, "type"))
		size, err3 := os.ReadFile(filepath.Join(d, "size"))
		if err1 == nil && err2 == nil && err3 == nil {
			key := "L" + strings.TrimSpace(string(level)) + " " + strings.TrimSpace(string(typ))
			e.Caches[key] = strings.TrimSpace(string(size))
		}
	}
	return e
}

// peakRSSMB is VmHWM of this process in MB (0 where /proc is absent).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTimes reads the aggregate cpu line of /proc/stat: jiffies the
// hypervisor ran something else while a vCPU of this guest was runnable
// (steal), and jiffies in all. Both are 0 where /proc/stat is absent.
func cpuTimes() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// calib is one reading of the two host calibration loops. They qualify a
// run — a shared box that got slower between the start and the end of a
// workload marks the run noisy — and are never optimisation targets.
type calib struct{ cpuMS, memMS float64 }

var calibSink uint64

// calibBuf is walked by the memory loop: 32 MiB of uint64, touched once so
// the first reading does not pay the page faults.
var calibBuf = func() []uint64 {
	b := make([]uint64, 4<<20)
	for i := range b {
		b[i] = uint64(i)
	}
	return b
}()

// calibrate times a fixed ALU loop and a fixed strided walk, best of reps.
func calibrate(reps int) calib {
	best := calib{math.Inf(1), math.Inf(1)}
	for rep := 0; rep < reps; rep++ {
		t := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 8_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		best.cpuMS = min(best.cpuMS, ms(time.Since(t)))

		t = time.Now()
		var sum uint64
		for start := 0; start < 8; start++ {
			for i := start; i < len(calibBuf); i += 8 { // one load per cache line
				sum += calibBuf[i]
			}
		}
		calibSink += sum
		best.memMS = min(best.memMS, ms(time.Since(t)))
	}
	return best
}

// calibDrift is the larger relative change of the two loops between two
// readings.
func calibDrift(a, b calib) float64 {
	rel := func(x, y float64) float64 { return math.Abs(y-x) / math.Min(x, y) }
	return math.Max(rel(a.cpuMS, b.cpuMS), rel(a.memMS, b.memMS))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
