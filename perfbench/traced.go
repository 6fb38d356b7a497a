package main

// The traced run behind the per-layer metrics, and the sensitivity
// self-test.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"time"

	"fancy/internal/sim"
)

// probePeriod is how often, in simulated time, the benchmark's probe event
// samples the event queue.
const probePeriod = 5 * sim.Millisecond

// pass is one traced replay of a sweep.
type pass struct {
	tc       *traceCtx
	wall     time.Duration // less the hypervisor's steal, as wall_s
	gcCycles uint32
	gcCPU    float64 // seconds, from the runtime's CPU-class estimates
}

func tracedPass(w *workload, seed int64, spinPerEvent float64) (pass, any) {
	tc := &traceCtx{tr: newTracer(), period: probePeriod, spin: spinPerEvent}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g0, sw := gcCPUSeconds(), startWatch()
	root := tc.tr.begin("sweep", 0)
	res := w.replay(seed, tc, root)
	tc.tr.end(root)
	wall, _, stolen := sw.read()
	runtime.ReadMemStats(&m1)
	return pass{tc: tc, wall: wall - stolen, gcCycles: m1.NumGC - m0.NumGC, gcCPU: gcCPUSeconds() - g0}, res
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// check compares a replay with the driver's result and books the trials
// it covered, the failed ones and the per-trial check failures.
func (r *report) check(w *workload, ref sweepResult, p pass, res any, first *counts) {
	trials, differ, problems := w.compare(ref.result, res)
	r.attempted += trials
	r.failed += min(differ+len(p.tc.bad), trials)
	for _, d := range problems {
		r.problems = append(r.problems, "replay differs from the driver: "+d)
	}
	r.problems = append(r.problems, p.tc.bad...)
	if first != nil && p.tc.c != *first {
		r.problems = append(r.problems, fmt.Sprintf("layer counters differ between passes over the same seed:\n  %+v\n  %+v", *first, p.tc.c))
	}
}

// tracedRun measures the per-layer metrics of one seed: reference driver
// sweeps, replays with spans under the CPU profiler (pass 1), and one
// replay under the allocation profiler with every allocation recorded
// (pass 2). It writes spans.jsonl, cpu.pprof, allocs_base.pprof,
// allocs.pprof and metrics.json to dir.
func tracedRun(w *workload, seed int64, budget time.Duration, dir string) (report, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return report{}, err
	}
	rep := report{values: map[string]float64{}}
	start := time.Now()

	var refWalls []float64
	var ref sweepResult
	for i := 0; i < 2 || (i < 5 && time.Since(start) < budget/4); i++ {
		runtime.GC()
		watch := startWatch()
		sw := w.driver(seed)
		wall, _, stolen := watch.read()
		refWalls = append(refWalls, (wall - stolen).Seconds())
		rep.attempted += sw.trials
		rep.failed += sw.failed
		rep.problems = append(rep.problems, sw.problems...)
		if i == 0 {
			ref = sw
		} else if same, diff := sameRender(ref.render, sw.render); !same {
			rep.failed += sw.trials - sw.failed
			rep.problems = append(rep.problems, "driver result differs between sweeps of the same seed: "+diff)
		}
	}

	cpuPath := filepath.Join(dir, "cpu.pprof")
	var passes []pass
	err := withCPUProfile(cpuPath, func() {
		// One OS thread runs the whole pass, so its CPU clock measures the
		// simulation without the garbage collector's background workers.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t1 := time.Now()
		for i := 0; i == 0 || (i < 10 && time.Since(t1) < budget/2); i++ {
			p, res := tracedPass(w, seed, 0)
			var first *counts
			if i > 0 {
				first = &passes[0].tc.c
			}
			rep.check(w, ref, p, res, first)
			passes = append(passes, p)
		}
	})
	if err != nil {
		return rep, err
	}

	runtime.GC()
	runtime.GC()
	before := takeMemSnapshot()
	if err := writeAllocs(filepath.Join(dir, "allocs_base.pprof")); err != nil {
		return rep, err
	}
	runtime.MemProfileRate = 1
	p2, res2 := tracedPass(w, seed, 0)
	runtime.MemProfileRate = 0
	runtime.GC()
	runtime.GC()
	after := takeMemSnapshot()
	if err := writeAllocs(filepath.Join(dir, "allocs.pprof")); err != nil {
		return rep, err
	}
	rep.check(w, ref, p2, res2, &passes[0].tc.c)

	if err := writeSpans(filepath.Join(dir, "spans.jsonl"), passes[0].tc.tr.spans); err != nil {
		return rep, err
	}
	data, err := os.ReadFile(cpuPath)
	if err != nil {
		return rep, err
	}
	prof, err := parseProfile(data)
	if err != nil {
		return rep, err
	}
	self, err := cpuByLayer(prof, runFrame)
	if err != nil {
		return rep, err
	}
	allocs := allocsByLayer(before, after)
	layerValues(rep.values, passes, refWalls, self, allocs)

	c := passes[0].tc.c
	for _, p := range passes {
		if p.tc.peekErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: warning: counters behind unexported fields unavailable:", p.tc.peekErr)
			break
		}
	}
	fmt.Printf("workload %s, seed %d: %d reference sweeps, %d traced passes, 1 allocation pass in %.1fs, GOMAXPROCS=%d\n",
		w.name, seed, len(refWalls), len(passes), time.Since(start).Seconds(), runtime.GOMAXPROCS(0))
	fmt.Printf("dedicated-counter trials at >=10%% loss that lost packets: %d, undetected: %d\n", c.DedLossy, c.DedLossyMissed)
	fmt.Printf("spans, profiles and metrics.json in %s\n", dir)

	summary := struct {
		Workload     string             `json:"workload"`
		Seed         int64              `json:"seed"`
		Passes       int                `json:"cpu_passes"`
		Metrics      map[string]float64 `json:"metrics"`
		SelfByLayer  map[string]float64 `json:"sim_run_self_s_by_layer_all_passes"`
		AllocByLayer map[string]float64 `json:"allocs_by_layer"`
		Counts       counts             `json:"counts"`
	}{w.name, seed, len(passes), rep.values, self, allocs, c}
	js, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return rep, err
	}
	return rep, os.WriteFile(filepath.Join(dir, "metrics.json"), js, 0o644)
}

// withCPUProfile runs fn under the CPU profiler, writing the profile to path.
func withCPUProfile(path string, fn func()) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	fn()
	pprof.StopCPUProfile()
	return f.Close()
}

func writeAllocs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Layers as reported: selfLayers have a *.self_s metric (CPU self time
// inside sim.Run spans), allocLayers an *.allocs metric (allocations of
// the whole replayed sweep). Anything else is reported as other.
var (
	selfLayers  = []string{"sim", "netsim", "fancy", "wire", "tcp", "traffic", "fleet", "mgmt", "verify", "exp", "runtime", "bench"}
	allocLayers = []string{"sim", "netsim", "fancy", "wire", "tcp", "traffic", "topo", "fleet", "mgmt", "verify", "exp", "bench"}
)

// layerValues derives the per-layer metrics. Counts are per sweep; times
// are per sweep, the median over the CPU-profiled passes (profile sums are
// divided by the number of passes).
func layerValues(v map[string]float64, passes []pass, refWalls []float64, self, allocs map[string]float64) {
	n := float64(len(passes))
	med := func(f func(p pass) float64) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return median(xs)
	}
	total := func(names ...string) float64 {
		return med(func(p pass) float64 {
			s := 0.0
			for _, name := range names {
				s += p.tc.tr.total(name)
			}
			return s
		})
	}
	c := passes[0].tc.c

	var selfSum, runCPU float64
	for _, s := range self {
		selfSum += s
	}
	for _, p := range passes {
		runCPU += p.tc.runCPU.Seconds()
	}
	for l, x := range self {
		key := "other.self_s"
		if slices.Contains(selfLayers, l) {
			key = l + ".self_s"
		}
		v[key] += x / n
	}
	for l, x := range allocs {
		key := "other.allocs"
		if slices.Contains(allocLayers, l) {
			key = l + ".allocs"
		}
		v[key] += x
	}

	v["sim.events"] = float64(c.Events)
	v["sim.ns_per_event"] = ratio(total("sim.Run")*1e9, float64(c.Events))
	v["sim.heap_depth_mean"] = ratio(c.DepthWeighted, float64(c.DepthEvents))
	v["netsim.pkts"] = float64(c.Pkts)
	v["netsim.drops"] = float64(c.Drops)
	v["netsim.ns_per_pkt"] = ratio(v["netsim.self_s"]*1e9, float64(c.Pkts))
	v["netsim.pool_reuse_frac"] = ratio(float64(c.PoolReuses), float64(c.PoolGets))
	v["fancy.sessions"] = float64(c.Sessions)
	v["fancy.ctl_msgs"] = float64(c.CtlMsgs)
	v["fancy.ctl_bytes"] = float64(c.CtlBytes)
	v["fancy.ctl_retransmits"] = float64(c.CtlRetx)
	v["fancy.true_alarm_frac"] = ratio(float64(c.TrueAlarms), float64(c.Alarms))
	v["fancy.ded_lossy_detect_frac"] = ratio(float64(c.DedLossy-c.DedLossyMissed), float64(c.DedLossy))
	v["tcp.segments"] = float64(c.Segments)
	v["tcp.retransmits"] = float64(c.Retransmits)
	v["tcp.timeouts"] = float64(c.Timeouts)
	v["traffic.synth_s"] = total("traffic.Synthesize")
	v["traffic.schedule_s"] = total("traffic.Schedule")
	v["traffic.flows"] = float64(c.Flows)
	v["topo.build_s"] = total("topo.Build", "topo.InstallShortestPaths")
	v["fleet.build_s"] = total("fleet.New")
	v["fleet.alarms"] = float64(c.FleetAlarms)
	v["fleet.suppressed"] = float64(c.FleetSuppressed)
	v["fleet.failovers"] = float64(c.Failovers)
	v["mgmt.datagrams"] = float64(c.MgmtSent)
	v["mgmt.delivered_frac"] = ratio(float64(c.MgmtDelivered), float64(c.MgmtSent))
	v["mgmt.retries"] = float64(c.MgmtRetries)
	v["verify.checks"] = float64(c.VerifyChecks)
	v["verify.rejected"] = float64(c.VerifyRejected)
	v["runtime.gc_cycles"] = med(func(p pass) float64 { return float64(p.gcCycles) })
	v["runtime.gc_cpu_s"] = med(func(p pass) float64 { return p.gcCPU })
	v["exp.trials"] = float64(c.Trials)
	var trialMs []float64
	for _, p := range passes {
		trialMs = append(trialMs, p.tc.tr.durations("trial")...)
	}
	v["exp.trial_ms_p50"] = median(trialMs)
	v["exp.trial_ms_max"] = maxOf(trialMs)
	v["bench.cpu_cover_frac"] = ratio(selfSum, runCPU)
	ref := median(refWalls)
	v["bench.trace_overhead_frac"] = ratio(med(func(p pass) float64 { return p.wall.Seconds() })-ref, ref)
	v["bench.peek_ok"] = 1
	for _, p := range passes {
		if p.tc.peekErr != nil {
			v["bench.peek_ok"] = 0
		}
	}
}

// spinSink keeps the spin loop's result live.
var spinSink uint64

// spin burns CPU for n iterations of a xorshift step, in this package, so
// the profiler charges it to the benchmark's own code.
func spin(n uint64) {
	x := spinSink | 1
	for i := uint64(0); i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
}

// spinRate returns spin iterations per nanosecond (best of a few tries).
func spinRate() float64 {
	const n = 20_000_000
	best := time.Duration(math.MaxInt64)
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		spin(n)
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return n / float64(best.Nanoseconds())
}

// spinFracs are the self-test's injected costs, as shares of the measured
// cost of one simulated event, added per event by the benchmark's probe.
// The first is the slowdown a layer optimization typically targets; the
// second is large enough to exceed wall_s's bound, which host noise sets.
var spinFracs = []float64{0.10, 0.40}

// wallBound is wall_s's bound in BENCHMARK.json.
const wallBound = 0.25

// sensitivity is the self-test. For each of spinFracs it adds a fixed spin
// per simulated event inside the benchmark's probe event, times
// alternating pairs of replays with and without it (wall time less steal,
// as wall_s), and profiles selfPasses alternating replays of each. It passes when the largest
// spin moves the median wall time by more than wall_s's bound, and when
// every spin's added CPU time is charged to the benchmark's callback
// rather than to a program layer.
func sensitivity(w *workload, seed int64, budget time.Duration) error {
	rate := spinRate()
	tracedPass(w, seed, 0) // the first replay of a process runs cold
	base, _ := tracedPass(w, seed, 0)
	nsPerEvent := ratio(base.tc.tr.total("sim.Run")*1e9, float64(base.tc.c.Events))
	dir := fmt.Sprintf(".bench_build/selftest/%s-%d", w.name, seed)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	fmt.Printf("self-test on %s, seed %d: sim.ns_per_event %.1f ns, %d events per sweep\n",
		w.name, seed, nsPerEvent, base.tc.c.Events)
	var fails []string
	for i, frac := range spinFracs {
		perEvent := frac * nsPerEvent * rate
		addedS := frac * nsPerEvent * float64(base.tc.c.Events) / 1e9
		shift, wins, pairs := spinShift(w, seed, perEvent, budget/time.Duration(len(spinFracs)))
		fmt.Printf("spin %.0f%% of an event (%.3f s per sweep): wall %+.1f%%, with-spin slower in %d of %d pairs (bound %.0f%%)\n",
			100*frac, addedS, 100*shift, wins, pairs, 100*wallBound)
		if i == len(spinFracs)-1 && shift <= wallBound {
			fails = append(fails, fmt.Sprintf("a %.0f%% spin moved wall by %.1f%%, not more than the %.0f%% bound", 100*frac, 100*shift, 100*wallBound))
		}

		a, b, err := runSelf(w, seed, perEvent, filepath.Join(dir, fmt.Sprintf("cpu_spin%.0f.pprof", 100*frac)))
		if err != nil {
			return err
		}
		var program float64 // net change of the program's layers
		var names []string
		for l := range b {
			names = append(names, l)
		}
		for l := range a {
			if _, ok := b[l]; !ok {
				names = append(names, l)
			}
		}
		sort.Strings(names)
		fmt.Printf("  sim.Run self time per sweep by layer (s, %d profiled replays each): plain, with spin, change\n", selfPasses)
		for _, l := range names {
			d := b[l] - a[l]
			fmt.Printf("    %-10s %8.3f %8.3f %+8.3f\n", l, a[l], b[l], d)
			if l != "bench" {
				program += d
			}
		}
		bench := b["bench"] - a["bench"]
		fmt.Printf("  added %.3f s per sweep: bench callback %+.3f s, program layers together %+.3f s\n", addedS, bench, program)
		if bench < 0.7*addedS {
			fails = append(fails, fmt.Sprintf("%.0f%% spin: the profile charges less than 70%% of the added time to the benchmark callback", 100*frac))
		}
		if math.Abs(program) > 0.3*bench {
			fails = append(fails, fmt.Sprintf("%.0f%% spin: program layers changed by more than 30%% of the callback's growth", 100*frac))
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("%v", fails)
	}
	fmt.Println("self-test passed")
	return nil
}

// spinShift times alternating pairs of replays without and with the spin
// and returns the relative change of the median, how many pairs the
// spun replay was slower in, and the number of pairs.
func spinShift(w *workload, seed int64, perEvent float64, budget time.Duration) (float64, int, int) {
	var plain, spun []float64
	wins := 0
	t0 := time.Now()
	for i := 0; i < 5 || (i < 20 && time.Since(t0) < budget); i++ {
		var pair [2]float64
		for k := 0; k < 2; k++ {
			side := (i + k) % 2 // alternate which side runs first
			spin := 0.0
			if side == 1 {
				spin = perEvent
			}
			p, _ := tracedPass(w, seed, spin)
			pair[side] = p.wall.Seconds()
		}
		plain = append(plain, pair[0])
		spun = append(spun, pair[1])
		if pair[1] > pair[0] {
			wins++
		}
	}
	return median(spun)/median(plain) - 1, wins, len(plain)
}

// selfPasses is how many replays the self-test profiles per side: one
// replay holds too few samples to tell a few percent apart. With 5 or 12,
// the profile's sampling error and the host's speed changes between
// neighbouring replays alone moved the program layers' total by as much as
// the 10 % spin's 30 % allowance in some runs.
const selfPasses = 30

// runSelf profiles selfPasses replays without and with the spin,
// alternating, in one profile whose samples carry a "spin" label, and
// returns each side's sim.Run self time by layer, per replay. Alternating
// keeps a drift in the host's speed from landing on one side.
func runSelf(w *workload, seed int64, perEvent float64, path string) (plain, spun map[string]float64, err error) {
	err = withCPUProfile(path, func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for i := 0; i < 2*selfPasses; i++ {
			side, spin := "0", 0.0
			if i%2 == 1 {
				side, spin = "1", perEvent
			}
			pprof.Do(context.Background(), pprof.Labels("spin", side), func(context.Context) {
				tracedPass(w, seed, spin)
			})
		}
	})
	if err != nil {
		return nil, nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, nil, err
	}
	if plain, err = cpuByLayerLabeled(p, runFrame, "spin", "0"); err != nil {
		return nil, nil, err
	}
	if spun, err = cpuByLayerLabeled(p, runFrame, "spin", "1"); err != nil {
		return nil, nil, err
	}
	for _, m := range []map[string]float64{plain, spun} {
		for l := range m {
			m[l] /= selfPasses
		}
	}
	return plain, spun, nil
}
