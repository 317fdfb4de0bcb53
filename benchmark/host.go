package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo is the header every result carries; two results compare only
// when their headers are equal.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	// Net says what the tcp_* workloads crossed: always the host's loopback
	// interface, never a link.
	Net string `json:"net"`
}

func readHost() hostInfo {
	kernel := runtime.GOOS
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     kernel,
		Net:        "loopback",
	}
}

func (h hostInfo) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s kernel=%s net=%s (tcp_* traffic crossed the host's loopback interface, not a link)",
		h.NProc, h.GOMAXPROCS, h.Go, h.Kernel, h.Net)
}

// ioCounters are the process totals of /proc/self/io the tcpnet metrics are
// deltas of: read and write system calls, and bytes passed to write calls.
type ioCounters struct {
	syscr, syscw, wchar int64
}

func (a ioCounters) sub(b ioCounters) ioCounters {
	return ioCounters{a.syscr - b.syscr, a.syscw - b.syscw, a.wchar - b.wchar}
}

// procFields returns the numeric "key: value" fields of a /proc file.
func procFields(path string) (map[string]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]int64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		if fs := strings.Fields(rest); len(fs) > 0 {
			if v, err := strconv.ParseInt(fs[0], 10, 64); err == nil {
				out[key] = v
			}
		}
	}
	return out, sc.Err()
}

// readIO reads /proc/self/io; ok is false where the file is missing or
// unreadable, and the metrics made from it are then reported as absent.
func readIO() (c ioCounters, ok bool) {
	f, err := procFields("/proc/self/io")
	if err != nil {
		return ioCounters{}, false
	}
	return ioCounters{syscr: f["syscr"], syscw: f["syscw"], wchar: f["wchar"]}, true
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (mb float64, ok bool) {
	f, err := procFields("/proc/self/status")
	if err != nil {
		return 0, false
	}
	kb, ok := f["VmHWM"]
	return float64(kb) / 1024, ok
}
