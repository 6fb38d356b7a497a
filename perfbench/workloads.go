package main

// The workloads, their driver sweeps with the output checks, and the
// untraced measurement loop behind the end-to-end metrics.

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"fancy/internal/exp"
	"fancy/internal/sim"
)

// workload is one benchmark input set: a driver sweep the end-to-end
// metrics time, and a replay of the same trials the traced run measures.
type workload struct {
	name string
	// subSeeds is how many distinct seeds one run sweeps. The detection
	// results vary from seed to seed; pooling a fixed number of them
	// makes the fidelity metrics steady from run to run.
	subSeeds int
	driver   func(seed int64) sweepResult
	replay   func(seed int64, tc *traceCtx, parent int) any
	// compare checks a replay against the driver's result for the same
	// seed, trial by trial; it returns the trials it compared, how many
	// of them differ, and what differs.
	compare func(driver, replay any) (trials, differ int, problems []string)
	// unlisted, when set, says why the workload runs by hand only and is
	// not in BENCHMARK.json.
	unlisted string
}

var workloads = map[string]*workload{
	"trace-tcp": {
		name: "trace-tcp", subSeeds: 20,
		driver: func(seed int64) sweepResult { return checkTable3(exp.Table3(exp.Quick, seed)) },
		replay: func(seed int64, tc *traceCtx, parent int) any {
			return table3Replay(seed, tc, parent)
		},
		compare: compareTable3,
	},
	"fleet-verified": {
		name: "fleet-verified", subSeeds: 4,
		driver: func(seed int64) sweepResult {
			return checkFleet(exp.FleetAbileneWorkers(exp.Full, seed, true, 1))
		},
		replay: func(seed int64, tc *traceCtx, parent int) any {
			return fleetVerifiedReplay(seed, tc, parent)
		},
		compare: compareFleet,
	},
	"fleet-chaos": {
		name: "fleet-chaos", subSeeds: 3,
		driver: func(seed int64) sweepResult { return checkChaos(exp.FleetChaos(exp.Full, seed)) },
		replay: func(seed int64, tc *traceCtx, parent int) any {
			return fleetChaosReplay(seed, tc, parent)
		},
		compare: compareChaos,
		unlisted: "the fleet announces a duplicate localization verdict after the " +
			"replica3+leaderkill failover on some seeds, so its runs fail their output check",
	},
}

// fidelity pools the detection results of the sweeps of distinct seeds.
type fidelity struct {
	trials, detected int
	tprBytesSum      float64 // Σ of byte-weighted TPR cells
	tprBytesCells    int
	detMsSum         float64 // Σ detection times of the detected trials
}

func (f *fidelity) add(g fidelity) {
	f.trials += g.trials
	f.detected += g.detected
	f.tprBytesSum += g.tprBytesSum
	f.tprBytesCells += g.tprBytesCells
	f.detMsSum += g.detMsSum
}

// addFleet books one fleet trial: detected when it localized exactly its
// link, whatever other check it failed.
func (f *fidelity) addFleet(exact bool, ttl sim.Time) {
	f.trials++
	if exact {
		f.detected++
		f.detMsSum += float64(ttl) / float64(sim.Millisecond)
	}
}

// closeFleet sets a fleet sweep's byte-weighted TPR: every trial fails one
// entry carrying the same bytes, so it is the share of trials detected.
func (f *fidelity) closeFleet() {
	f.tprBytesSum, f.tprBytesCells = ratio(float64(f.detected), float64(f.trials)), 1
}

// sweepResult is one driver sweep with its checks applied.
type sweepResult struct {
	render   string
	trials   int
	failed   int // trials whose output check failed
	problems []string
	fid      fidelity
	result   any
}

func (s *sweepResult) failTrials(n int, format string, args ...any) {
	s.failed += n
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
}

// checkTable3 checks a quick-scale Table 3: every loss-rate row is present,
// in order, over the same sampled prefixes, with rates in [0,1] and a
// detection time exactly when something was detected.
func checkTable3(r *exp.Table3Result) sweepResult {
	s := sweepResult{render: r.Render(), result: r}
	want := table3Samples
	if len(r.Rows) > 0 {
		want = r.Rows[0].Trials
	}
	if len(r.Rows) != len(table3Losses) {
		s.failTrials(want*len(table3Losses), "table3: %d rows, want %d", len(r.Rows), len(table3Losses))
	}
	for i, row := range r.Rows {
		s.trials += row.Trials
		det := int(math.Round(row.TPRPrefixes * float64(row.Trials)))
		ok := i < len(table3Losses) && row.LossRate == table3Losses[i] &&
			row.Trials > 0 && row.Trials == want && row.DedTrials+row.TreeTrials == row.Trials
		for _, v := range []float64{row.TPRBytes, row.TPRPrefixes, row.TPRDedicated, row.TPRTree} {
			ok = ok && v >= 0 && v <= 1
		}
		if det > 0 {
			ok = ok && row.DetTimeSecs > 0 && !math.IsInf(row.DetTimeSecs, 0) && row.TPRBytes > 0
		} else {
			ok = ok && math.IsNaN(row.DetTimeSecs)
		}
		if !ok {
			s.failTrials(row.Trials, "table3: row %d (%s loss) fails its checks: %+v", i, exp.LossLabel(row.LossRate), row)
			continue
		}
		s.fid.trials += row.Trials
		s.fid.detected += det
		s.fid.tprBytesSum += row.TPRBytes
		s.fid.tprBytesCells++
		if det > 0 {
			s.fid.detMsSum += row.DetTimeSecs * 1000 * float64(det)
		}
	}
	return s
}

// checkFleet checks a full-scale verified fleet sweep: one trial per
// directed Abilene link, each localizing exactly its injected link.
func checkFleet(r *exp.FleetResult) sweepResult {
	s := sweepResult{render: r.Render(), result: r, trials: len(r.Rows)}
	targets := fleetTargets()
	if len(r.Rows) != len(targets) {
		s.failTrials(max(len(targets)-len(r.Rows), 0), "fleet: %d trials, want %d", len(r.Rows), len(targets))
	}
	for i, row := range r.Rows {
		if i >= len(targets) || row.Link != targets[i].String() || !row.Exact || row.TTL <= 0 {
			s.failTrials(1, "fleet: trial %d (%s) exact=%v ttl=%v", i, row.Link, row.Exact, row.TTL)
		}
		s.fid.addFleet(row.Exact, row.TTL)
	}
	s.fid.closeFleet()
	return s
}

// checkChaos checks a full-scale chaos sweep: every configuration over
// every directed link, each trial localizing exactly its injected link
// with exactly one verdict (no duplicates across crashes and failovers).
func checkChaos(r *exp.ChaosFleetResult) sweepResult {
	s := sweepResult{render: r.Render(), result: r, trials: len(r.Rows)}
	targets := fleetTargets()
	want := len(chaosConfigs) * len(targets)
	if len(r.Rows) != want {
		s.failTrials(max(want-len(r.Rows), 0), "chaos: %d trials, want %d", len(r.Rows), want)
	}
	for i, row := range r.Rows {
		ok := i < want && row.Config == chaosConfigs[i/len(targets)].Name &&
			row.Link == targets[i%len(targets)].String() && row.Exact && row.Verdicts == 1 && row.TTL > 0
		if !ok {
			s.failTrials(1, "chaos: trial %d (%s %s) exact=%v verdicts=%d ttl=%v",
				i, row.Config, row.Link, row.Exact, row.Verdicts, row.TTL)
		}
		s.fid.addFleet(row.Exact, row.TTL)
	}
	s.fid.closeFleet()
	return s
}

// compareTable3 compares the rows the replay aggregates with the driver's:
// Table3 reports per loss rate, so a differing row fails its trials.
func compareTable3(driver, replay any) (int, int, []string) {
	d, r := driver.(*exp.Table3Result), replay.(*exp.Table3Result)
	trials, differ := 0, 0
	var problems []string
	for i, row := range d.Rows {
		trials += row.Trials
		if i >= len(r.Rows) || !sameTable3Row(row, r.Rows[i]) {
			differ += row.Trials
			problems = append(problems, fmt.Sprintf("table3 row %d: driver %+v", i, row))
		}
	}
	return trials, differ, problems
}

// sameTable3Row compares rows bit for bit (a row with no detection has a
// NaN detection time).
func sameTable3Row(a, b exp.Table3Row) bool {
	fa := []float64{a.LossRate, a.TPRBytes, a.TPRPrefixes, a.TPRDedicated, a.TPRTree, a.DetTimeSecs}
	fb := []float64{b.LossRate, b.TPRBytes, b.TPRPrefixes, b.TPRDedicated, b.TPRTree, b.DetTimeSecs}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Trials == b.Trials && a.DedTrials == b.DedTrials && a.TreeTrials == b.TreeTrials
}

func compareFleet(driver, replay any) (int, int, []string) {
	d, r := driver.(*exp.FleetResult), replay.(*exp.FleetResult)
	return compareRows(d.Rows, r.Rows)
}

func compareChaos(driver, replay any) (int, int, []string) {
	d, r := driver.(*exp.ChaosFleetResult), replay.(*exp.ChaosFleetResult)
	return compareRows(d.Rows, r.Rows)
}

func compareRows[R comparable](driver, replay []R) (int, int, []string) {
	var problems []string
	for i, row := range driver {
		if i >= len(replay) || row != replay[i] {
			problems = append(problems, fmt.Sprintf("trial %d: driver %+v", i, row))
		}
	}
	return len(driver), len(problems), problems
}

// subSeeds derives a run's distinct seeds from its --seed: the seed itself
// first, then a SplitMix64 sequence, so runs of neighbouring seeds share
// no inputs.
func subSeeds(seed int64, n int) []int64 {
	out := []int64{seed}
	x := uint64(seed)
	for len(out) < n {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		out = append(out, int64(z>>33))
	}
	return out
}

// setupPasses is how many times, at least, a run sets up a whole sweep
// without running it, round robin over the run's seeds; setup_s is their
// median. A set-up takes milliseconds, so many passes cost little. They
// run setupsPerSweep at a time after each timed sweep, so that, like the
// sweeps, they sample the host over the whole run rather than over one
// second of it; the rest run after the last sweep.
const (
	setupPasses    = 61
	setupsPerSweep = 3
)

// runCap stops a run from starting new sweeps, so a much slower program
// still ends well inside the 180 s one run may take.
const runCap = 140 * time.Second

// measure is the untraced run: an untimed warm-up sweep of the first seed,
// then timed driver sweeps over the run's seeds, round robin, each
// followed by set-up passes, until the time budget is spent and every seed
// has been swept.
func measure(w *workload, seed int64, budget time.Duration) report {
	start := time.Now()
	seeds := subSeeds(seed, w.subSeeds)
	rep := report{values: map[string]float64{}}

	// One untimed sweep first: the first sweeps of a fresh process run
	// slower while the heap grows and pages are first touched. Its result
	// is the reference the timed sweep of the same seed must repeat.
	var fid fidelity
	warm := w.driver(seeds[0])
	rep.attempted += warm.trials
	rep.failed += warm.failed
	rep.problems = append(rep.problems, warm.problems...)
	renders := map[int64]string{seeds[0]: warm.render}
	fid.add(warm.fid)

	// Set-up passes run only in the warmed process: they are short enough
	// for a cold heap to double them.
	var setups []float64
	setupPass := func() {
		runtime.GC()
		tc := &traceCtx{setupOnly: true}
		w.replay(seeds[len(setups)%len(seeds)], tc, 0)
		rep.problems = append(rep.problems, tc.bad...)
		setups = append(setups, tc.setup.Seconds())
	}

	var walls, cpus, allocs, bytes, rss []float64
	t0 := time.Now()
	for i := 0; i < len(seeds) || time.Since(t0) < budget; i++ {
		if time.Since(start) > runCap {
			fmt.Fprintf(os.Stderr, "perfbench: warning: stopped after %d sweeps at the %v cap; fidelity pools fewer seeds\n", i, runCap)
			break
		}
		s := seeds[i%len(seeds)]
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		windowed := resetPeakRSS()
		watch := startWatch()
		sw := w.driver(s)
		wall, cpu, stolen := watch.read()
		runtime.ReadMemStats(&m1)
		if windowed {
			rss = append(rss, peakRSSMB())
		}
		fmt.Fprintf(os.Stderr, "sweep %d seed %d: wall %.3fs steal %.3fs cpu %.3fs allocs %d\n",
			i, s, wall.Seconds(), stolen.Seconds(), cpu.Seconds(), m1.Mallocs-m0.Mallocs)

		// Stolen time is taken off the wall clock (see stopwatch.read): on
		// a shared host it moves the same sweep's wall time by tens of
		// percent.
		walls = append(walls, (wall - stolen).Seconds())
		cpus = append(cpus, cpu.Seconds())
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc))
		rep.attempted += sw.trials
		rep.failed += sw.failed
		rep.problems = append(rep.problems, sw.problems...)
		if prev, ok := renders[s]; !ok {
			renders[s] = sw.render
			fid.add(sw.fid)
		} else if same, diff := sameRender(prev, sw.render); !same {
			rep.failed += sw.trials - sw.failed
			rep.problems = append(rep.problems, fmt.Sprintf("seed %d: result differs from the earlier sweep of the same seed: %s", s, diff))
		}
		for k := 0; k < setupsPerSweep; k++ {
			setupPass()
		}
	}
	for len(setups) < setupPasses {
		setupPass()
	}
	fmt.Printf("workload %s, seed %d: %d sweeps over %d seeds in %.1fs, GOMAXPROCS=%d\n",
		w.name, seed, len(walls), len(seeds), time.Since(start).Seconds(), runtime.GOMAXPROCS(0))

	v := rep.values
	v["wall_s"] = median(walls)
	v["cpu_s"] = median(cpus)
	v["setup_s"] = median(setups)
	v["allocs_k"] = median(allocs) / 1e3
	v["alloc_mb"] = median(bytes) / (1 << 20)
	v["peak_rss_mb"] = peakRSSMB()
	if len(rss) == len(walls) {
		v["peak_rss_mb"] = median(rss)
	}
	v["detect_frac"] = ratio(float64(fid.detected), float64(fid.trials))
	v["tpr_bytes"] = ratio(fid.tprBytesSum, float64(fid.tprBytesCells))
	v["detect_ms_mean"] = ratio(fid.detMsSum, float64(fid.detected))
	v["pass_frac"] = 1 - ratio(float64(rep.failed), float64(rep.attempted))
	return rep
}
