package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// hostStats is one reading of the counters of the process hosting the
// engine: tcqd for the wire workloads, the harness itself for the embedded
// ones. Metrics are deltas between two readings.
type hostStats struct {
	cpuNs      int64  // user+system CPU
	mallocs    uint64 // runtime.MemStats.Mallocs
	allocBytes uint64 // runtime.MemStats.TotalAlloc
	numGC      uint64
	pauseRing  [256]uint64 // runtime.MemStats.PauseNs: pause of GC n at [(n-1)%256]
	syscalls   int64       // syscr+syscw of /proc/<pid>/io
	ctxSw      int64       // voluntary+involuntary, all threads
}

// gcPauseNs sums the pauses of the collections that ran between two
// readings, from the later reading's ring (exact up to 256 collections).
func gcPauseNs(before, after hostStats) uint64 {
	n := after.numGC - before.numGC
	if n > uint64(len(after.pauseRing)) {
		n = uint64(len(after.pauseRing))
	}
	var total uint64
	for j := uint64(0); j < n; j++ {
		total += after.pauseRing[(after.numGC-1-j)%uint64(len(after.pauseRing))]
	}
	return total
}

// procCPUNs reads the CPU time pid has used: the sum over its threads of the
// scheduler's run time (first field of /proc/<pid>/task/*/schedstat, in ns;
// the Go runtime never ends a thread, so none goes missing), and where the
// kernel keeps no schedstat, utime+stime of /proc/<pid>/stat in 10 ms ticks,
// which is 3% of a 0.3 s slice.
func procCPUNs(pid int) (int64, error) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid)) // the pattern is well-formed
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread ended between the glob and the read
		}
		f := strings.Fields(string(b))
		if len(f) < 3 {
			total = 0
			break
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			total = 0
			break
		}
		total += ns
	}
	if total > 0 {
		return total, nil
	}
	return procStatCPUNs(pid)
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times: 100 on every
// Linux ABI Go supports.
const clockTick = 100

// procStatCPUNs reads utime+stime of pid from /proc/<pid>/stat.
func procStatCPUNs(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("procfs: malformed stat for pid %d", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("procfs: short stat for pid %d", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	st, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("procfs: bad cpu fields for pid %d", pid)
	}
	return (ut + st) * (1e9 / clockTick), nil
}

func selfCPUNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// procKeyed sums the integer values of the given keys in a "key: value"
// file such as /proc/<pid>/io or /proc/<pid>/status.
func procKeyed(path string, keys ...string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		for _, want := range keys {
			if k == want {
				n, err := strconv.ParseInt(strings.Fields(v)[0], 10, 64)
				if err != nil {
					return 0, fmt.Errorf("procfs: %s %s: %w", path, k, err)
				}
				total += n
			}
		}
	}
	return total, nil
}

func procSyscalls(pid int) int64 {
	n, err := procKeyed(fmt.Sprintf("/proc/%d/io", pid), "syscr", "syscw")
	if err != nil {
		return 0
	}
	return n
}

// procCtxSwitches sums context switches over every thread of pid
// (/proc/<pid>/status alone reports the main thread only).
func procCtxSwitches(pid int) int64 {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil {
		return 0
	}
	var total int64
	for _, t := range tasks {
		// A thread may exit between the glob and the read; skip it.
		if n, err := procKeyed(t, "voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"); err == nil {
			total += n
		}
	}
	return total
}

// procPeakRSSMB reads VmHWM of pid.
func procPeakRSSMB(pid int) (float64, error) {
	kb, err := procKeyed(fmt.Sprintf("/proc/%d/status", pid), "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// selfStats reads the harness's own counters (embedded workloads: the
// harness hosts the engine). The collector is not touched.
func selfStats() hostStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	pid := os.Getpid()
	return hostStats{
		cpuNs:      selfCPUNs(),
		mallocs:    m.Mallocs,
		allocBytes: m.TotalAlloc,
		numGC:      uint64(m.NumGC),
		pauseRing:  m.PauseNs,
		syscalls:   procSyscalls(pid),
		ctxSw:      procCtxSwitches(pid),
	}
}

// remoteStats reads a tcqd's counters: CPU and I/O from /proc, allocation and
// GC counters from the runtime.MemStats dump at the end of
// /debug/pprof/heap?debug=1 on its -http endpoint (without gc=1, so reading
// them does not make tcqd collect).
func remoteStats(pid int, httpAddr string) (hostStats, error) {
	cpu, err := procCPUNs(pid)
	if err != nil {
		return hostStats{}, err
	}
	hs := hostStats{cpuNs: cpu, syscalls: procSyscalls(pid), ctxSw: procCtxSwitches(pid)}
	resp, err := http.Get("http://" + httpAddr + "/debug/pprof/heap?debug=1")
	if err != nil {
		return hs, fmt.Errorf("heap profile: %w", err)
	}
	defer resp.Body.Close()
	if err := parseMemStats(resp.Body, &hs); err != nil {
		return hs, err
	}
	return hs, nil
}

// parseMemStats extracts the "# Name = value" lines pprof appends to a
// debug=1 heap profile.
func parseMemStats(r io.Reader, hs *hostStats) error {
	found := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "# ") {
			continue
		}
		k, v, ok := strings.Cut(line[2:], " = ")
		if !ok {
			continue
		}
		var dst *uint64
		switch k {
		case "Mallocs":
			dst = &hs.mallocs
		case "TotalAlloc":
			dst = &hs.allocBytes
		case "NumGC":
			dst = &hs.numGC
		case "PauseNs":
			// The ring prints as "[a b c ...]".
			for i, f := range strings.Fields(strings.Trim(v, "[] ")) {
				if i < len(hs.pauseRing) {
					hs.pauseRing[i], _ = strconv.ParseUint(f, 10, 64)
				}
			}
			found++
			continue
		default:
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return fmt.Errorf("heap profile: %s: %w", k, err)
		}
		*dst = n
		found++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	if found < 4 {
		return fmt.Errorf("heap profile: found %d of 4 MemStats fields", found)
	}
	return nil
}
