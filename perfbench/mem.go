package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// memWindow measures one round's memory: bytes allocated (TotalAlloc
// delta) and peak resident set. Each window starts from a collected heap
// returned to the OS and a reset high-water mark, so one round's peak does
// not carry into the next.
type memWindow struct {
	alloc0 uint64
}

// startMem collects garbage, returns freed memory to the OS, resets the
// kernel's peak-RSS mark for this process and snapshots TotalAlloc.
func startMem() memWindow {
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memWindow{alloc0: ms.TotalAlloc}
}

// stop returns the MB allocated since startMem and the peak RSS in MB.
func (w memWindow) stop() (allocMB, peakMB float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc-w.alloc0) / (1 << 20), peakRSSMB()
}

// resetPeakRSS asks Linux to reset VmHWM to the current RSS. Failure only
// makes the peak an upper bound over earlier rounds, so it is ignored.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/self/status, or 0 when unavailable.
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

// gcPauseSeconds returns the cumulative GC stop-the-world pause time.
func gcPauseSeconds() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.PauseTotalNs) / 1e9
}
