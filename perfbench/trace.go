package main

// Spans recorded by the traced run around the calls into each layer, kept
// in memory and written out as JSON lines when the run ends.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// span is one timed call. Spans of one trial share its Trial number;
// Parent is the span that made the call (0 for a root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trial  int    `json:"trial"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans. A nil *tracer records nothing, so the set-up
// passes share the traced code path without paying for it.
type tracer struct {
	t0    time.Time
	spans []span
	trial int // current trial number, -1 outside trials
}

func newTracer() *tracer { return &tracer{t0: time.Now(), trial: -1} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trial: t.trial,
		Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// setTrial tags the spans begun from now on with a trial number (-1: none).
func (t *tracer) setTrial(n int) {
	if t != nil {
		t.trial = n
	}
}

// total sums the durations of the spans with the given name, in seconds.
func (t *tracer) total(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// durations lists the durations of the spans with the given name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns each span's self time in ns: its duration minus the
// part of its interval that its children cover. Children may overlap each
// other or stick out of the parent; only their union inside the parent
// counts.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var sum, curA, curB int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			sum += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		sum += curB - curA
	}
	return sum
}

// writeSpans writes the spans, with their self times, as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := selfTimes(spans)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			span
			Self int64 `json:"self_ns"`
		}{s, self[s.ID]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// threadCPU returns the CPU time the calling OS thread has used. The traced
// pass locks its goroutine to one thread, so differences of this clock are
// the CPU time of the simulation alone, without the garbage collector's
// background workers.
func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD (Linux)
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// processCPU returns the user+system CPU time of the whole process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS starts a new peak resident-set window (on Linux, writing 5
// to /proc/self/clear_refs resets the process's VmHWM); it reports whether
// the kernel allowed it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB returns the process's peak resident set size in MiB since the
// last resetPeakRSS (VmHWM in /proc/self/status), or over its lifetime
// where that is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// stopwatch measures one sweep: its wall time, the process's CPU time, and
// the part of the wall time the hypervisor stole from the process.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
	host []vcpuTime
}

func startWatch() stopwatch {
	return stopwatch{wall: time.Now(), cpu: processCPU(), host: hostTimes()}
}

// read returns the wall and CPU time since start and the stolen time
// charged to this process. On a shared virtual machine the hypervisor
// takes the virtual CPUs away now and then; the guest counts that time in
// /proc/stat's steal column and not as the process's CPU time, but it
// stretches the wall time. Each virtual CPU's steal is weighted by how busy
// that CPU was, and the sum by this process's share of the busy time, so
// an idle CPU's steal does not count and the estimate is the full steal of
// the CPUs the benchmark ran on when it runs alone.
func (w stopwatch) read() (wall, cpu, stolen time.Duration) {
	wall = time.Since(w.wall)
	cpu = processCPU() - w.cpu
	now := hostTimes()
	if len(now) != len(w.host) {
		return wall, cpu, 0
	}
	var busySum, weighted float64
	for i := range now {
		busy := float64(now[i].busy - w.host[i].busy)
		idle := float64(now[i].idle - w.host[i].idle)
		steal := float64(now[i].steal - w.host[i].steal)
		busySum += busy
		if busy > 0 {
			weighted += steal * busy / (busy + idle)
		}
	}
	if busySum > 0 {
		stolen = time.Duration(min(1, float64(cpu)/busySum) * weighted)
	}
	return wall, cpu, stolen
}

// vcpuTime is one virtual CPU's cumulative busy (user, nice, system, irq,
// softirq), idle (idle, iowait) and steal time.
type vcpuTime struct{ busy, idle, steal time.Duration }

// hostTimes reads the per-CPU lines of /proc/stat (10 ms ticks); nil where
// unavailable.
func hostTimes() []vcpuTime {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	var out []vcpuTime
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		var t [8]time.Duration
		for i := range t {
			n, err := strconv.ParseUint(f[i+1], 10, 64)
			if err != nil {
				return nil
			}
			t[i] = time.Duration(n) * (time.Second / 100) // USER_HZ
		}
		// user nice system idle iowait irq softirq steal
		out = append(out, vcpuTime{busy: t[0] + t[1] + t[2] + t[5] + t[6], idle: t[3] + t[4], steal: t[7]})
	}
	return out
}
