package main

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// envBlock describes the machine and build a result was measured on.
// SharedProcess is always true: the benchmark's clients and the server
// under test run in one process and compete for the same cores.
type envBlock struct {
	Commit        string `json:"commit"`
	GoVersion     string `json:"go_version"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	NProc         int    `json:"nproc"`
	CPUModel      string `json:"cpu_model"`
	Kernel        string `json:"kernel"`
	SharedProcess bool   `json:"server_and_clients_share_process"`
}

func captureEnv() envBlock {
	return envBlock{
		Commit:        gitCommit(),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NProc:         runtime.NumCPU(),
		CPUModel:      procField("/proc/cpuinfo", "model name"),
		Kernel:        firstLine("/proc/sys/kernel/osrelease"),
		SharedProcess: true,
	}
}

// gitCommit names the commit under test, or "unknown" outside a git
// checkout (the driver's checkouts are plain directories).
func gitCommit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

// procField returns the value of the first "key : value" line of a
// /proc file whose key matches.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), the
// paper's Table 7 measure taken for the whole run.
func peakRSSMB() float64 {
	v := procField("/proc/self/status", "VmHWM") // "123456 kB"
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// calibrate times a fixed, allocation-free integer kernel on one core and
// returns the milliseconds it took. It is never used to adjust a metric:
// it is written beside them so that two result files show whether the
// machine or the code changed speed between them. On the shared 2-core
// VM this benchmark was written on, the same binary on the same seed
// moved by 10-25% over twenty minutes.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	var sum uint64
	for i := 0; i < 200_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += x
	}
	calibSink = sum
	return ms(time.Since(t0))
}

var calibSink uint64 // keeps the compiler from removing the loop
