// Command perfbench is the repository's benchmark. It runs one named
// workload through the internal/exp drivers that cmd/fancy-bench uses,
// checks every sweep's output, and prints the end-to-end metrics; with
// -trace 1 it instead replays the workload's trials with spans around each
// layer's calls, the CPU and allocation profilers running, and prints the
// per-layer metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// See README.md in this directory for the workloads, the metrics and how to
// reproduce a traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// maxProcs caps GOMAXPROCS: the load is one process whose drivers run their
// trials sequentially (their default worker count), and the cap keeps the
// garbage collector's share of the machine the same on larger hosts.
const maxProcs = 2

func main() {
	var (
		name     = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 20220822, "seed the workload's inputs are made from")
		seconds  = flag.Float64("seconds", 40, "how long to measure")
		trace    = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		out      = flag.String("out", "", "traced run: directory for spans and profiles (default .bench_build/trace/<workload>-<seed>)")
		selftest = flag.Bool("selftest", false, "sensitivity self-test: inject a spin into a benchmark-owned event and show it is detected and attributed")
	)
	flag.Parse()
	if *trace == 1 || *selftest {
		// Allocation profiling is switched on only for the pass that
		// needs it; sampling elsewhere would slow the timed passes.
		runtime.MemProfileRate = 0
	}
	if runtime.NumCPU() > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	if w.unlisted != "" {
		fmt.Fprintf(os.Stderr, "perfbench: note: %s is not in BENCHMARK.json: %s\n", w.name, w.unlisted)
	}
	budget := time.Duration(*seconds * float64(time.Second))

	if *selftest {
		if err := sensitivity(w, *seed, budget); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: self-test:", err)
			os.Exit(1)
		}
		return
	}

	var rep report
	if *trace == 1 {
		dir := *out
		if dir == "" {
			dir = fmt.Sprintf(".bench_build/trace/%s-%d", w.name, *seed)
		}
		var err error
		if rep, err = tracedRun(w, *seed, budget, dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	} else {
		rep = measure(w, *seed, budget)
	}
	emit(rep, *trace == 1)
	if !rep.correct() {
		os.Exit(1)
	}
}

// report is what a run measured and checked.
type report struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
}

func (r report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// emit prints every metric of the run's table as a readable line, then the
// JSON result line.
func emit(r report, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", p)
	}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Printf("%-26s %16.6g %s\n", d.Name, v, d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metricDef declares a metric; the two tables are what BENCHMARK.json lists.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"allocs_k", "thousands", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"detect_frac", "ratio", "higher"},
	{"tpr_bytes", "ratio", "higher"},
	{"detect_ms_mean", "sim_ms", "lower"},
	{"pass_frac", "ratio", "higher"},
}

var perLayer = []metricDef{
	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.heap_depth_mean", "count", "lower"},
	{"sim.self_s", "s", "lower"},
	{"sim.allocs", "count", "lower"},
	{"netsim.pkts", "count", "lower"},
	{"netsim.drops", "count", "lower"},
	{"netsim.ns_per_pkt", "ns", "lower"},
	{"netsim.pool_reuse_frac", "ratio", "higher"},
	{"netsim.self_s", "s", "lower"},
	{"netsim.allocs", "count", "lower"},
	{"fancy.sessions", "count", "lower"},
	{"fancy.ctl_msgs", "count", "lower"},
	{"fancy.ctl_bytes", "bytes", "lower"},
	{"fancy.ctl_retransmits", "count", "lower"},
	{"fancy.true_alarm_frac", "ratio", "higher"},
	{"fancy.ded_lossy_detect_frac", "ratio", "higher"},
	{"fancy.self_s", "s", "lower"},
	{"fancy.allocs", "count", "lower"},
	{"wire.self_s", "s", "lower"},
	{"wire.allocs", "count", "lower"},
	{"tcp.segments", "count", "lower"},
	{"tcp.retransmits", "count", "lower"},
	{"tcp.timeouts", "count", "lower"},
	{"tcp.self_s", "s", "lower"},
	{"tcp.allocs", "count", "lower"},
	{"traffic.synth_s", "s", "lower"},
	{"traffic.schedule_s", "s", "lower"},
	{"traffic.flows", "count", "lower"},
	{"traffic.self_s", "s", "lower"},
	{"traffic.allocs", "count", "lower"},
	{"topo.build_s", "s", "lower"},
	{"topo.allocs", "count", "lower"},
	{"fleet.build_s", "s", "lower"},
	{"fleet.alarms", "count", "lower"},
	{"fleet.suppressed", "count", "lower"},
	{"fleet.failovers", "count", "lower"},
	{"fleet.self_s", "s", "lower"},
	{"fleet.allocs", "count", "lower"},
	{"mgmt.datagrams", "count", "lower"},
	{"mgmt.delivered_frac", "ratio", "higher"},
	{"mgmt.retries", "count", "lower"},
	{"mgmt.self_s", "s", "lower"},
	{"mgmt.allocs", "count", "lower"},
	{"verify.checks", "count", "lower"},
	{"verify.rejected", "count", "lower"},
	{"verify.self_s", "s", "lower"},
	{"verify.allocs", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_cpu_s", "s", "lower"},
	{"runtime.self_s", "s", "lower"},
	{"exp.trials", "count", "higher"},
	{"exp.trial_ms_p50", "ms", "lower"},
	{"exp.trial_ms_max", "ms", "lower"},
	{"exp.self_s", "s", "lower"},
	{"exp.allocs", "count", "lower"},
	{"other.self_s", "s", "lower"},
	{"other.allocs", "count", "lower"},
	{"bench.self_s", "s", "lower"},
	{"bench.allocs", "count", "lower"},
	{"bench.cpu_cover_frac", "ratio", "higher"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
	{"bench.peek_ok", "bool", "higher"},
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
