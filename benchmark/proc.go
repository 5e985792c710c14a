package main

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// dispenser hands out the indices 0..n-1 exactly once each to any number of
// callers: the fixed-count work partition of a pass.
type dispenser struct {
	next atomic.Int64
	n    int64
}

func newDispenser(n int) *dispenser { return &dispenser{n: int64(n)} }

func (d *dispenser) take() (int, bool) {
	i := d.next.Add(1) - 1
	return int(i), i < d.n
}

// selfCPU is the harness process's own CPU time (user+system), which is the
// system under test's for the in-process workloads.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// clockTick is USER_HZ, the unit of the CPU fields of /proc/<pid>/stat. It
// is 100 on every Linux architecture Go runs on; sysconf is not reachable
// without cgo.
const clockTick = time.Second / 100

// procCPU reads a process's CPU time (user+system) from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(b))
}

// parseProcStat extracts utime+stime. The command name (field 2) may hold
// spaces and parentheses, so fields are counted from the last ')'.
func parseProcStat(s string) (time.Duration, error) {
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line %q", s)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed CPU fields in /proc stat line %q", s)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
