// Command fancy-bench regenerates the tables and figures of the FANcY
// paper's evaluation.
//
// Usage:
//
//	fancy-bench -list
//	fancy-bench -exp fig7,table3
//	fancy-bench -exp all -full                      # paper-scale parameters (slow)
//	fancy-bench -exp fleet,hh-churn -bench-json BENCH_fleet.json
//	fancy-bench -exp fleet -full -workers 4        # parallel fleet trials
//
// Each experiment prints the same rows/series the paper reports; see
// EXPERIMENTS.md for the paper-vs-measured record. -bench-json
// additionally writes the machine-readable benchmark cells (TTL medians
// plus wall-clock per sweep cell) that CI archives as an artifact.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"fancy/internal/exp"
)

type experiment struct {
	name string
	desc string
	run  func(scale exp.Scale, seed int64) (string, []exp.BenchCell)
}

// text adapts a render-only experiment (no benchmark cells).
func text(fn func(scale exp.Scale, seed int64) string) func(exp.Scale, int64) (string, []exp.BenchCell) {
	return func(s exp.Scale, seed int64) (string, []exp.BenchCell) { return fn(s, seed), nil }
}

// experiments builds the registry. workers sets the trial-level
// parallelism of the fleet and fleet-verified sweeps (1 = sequential;
// results are byte-identical for every value); the other experiments
// ignore it.
func experiments(workers int) []experiment {
	return []experiment{
		{"table2", "LossRadar requirements vs switch capabilities (§2.3)",
			text(func(exp.Scale, int64) string { return exp.Table2() })},
		{"fig2", "NetSeer required memory vs link latency (§2.3)",
			text(func(exp.Scale, int64) string { return exp.Figure2() })},
		{"fig7", "dedicated-counter accuracy & speed heatmaps (§5.1.1)",
			text(func(s exp.Scale, seed int64) string { return exp.Figure7(s, seed).Render() })},
		{"fig8", "minimum entry size per zooming speed (§5.1.2)",
			text(func(s exp.Scale, seed int64) string { return exp.Figure8(s, seed).Render() })},
		{"fig9a", "hash-tree heatmaps, single-entry failures (§5.1.2)",
			text(func(s exp.Scale, seed int64) string { return exp.Figure9Single(s, seed).Render() })},
		{"fig9b", "hash-tree heatmaps, multi-entry failures (§5.1.2)",
			text(func(s exp.Scale, seed int64) string { return exp.Figure9Multi(s, seed).Render() })},
		{"uniform", "uniform-failure classification (§5.1.3)",
			text(func(s exp.Scale, seed int64) string {
				r := exp.UniformFailures(s, seed)
				var b strings.Builder
				b.WriteString("== §5.1.3 uniform failures ==\n")
				for i, loss := range r.LossRates {
					fmt.Fprintf(&b, "loss %-5s detected=%v latency=%.2fs\n",
						exp.LossLabel(loss), r.Detected[i], r.Latency[i])
				}
				return b.String()
			})},
		{"table3", "FANcY on CAIDA-like traces (§5.2)",
			text(func(s exp.Scale, seed int64) string { return exp.Table3(s, seed).Render() })},
		{"base", "comparison to simple designs (§5.2)",
			text(func(s exp.Scale, seed int64) string { return exp.BaselineComparison(s, seed).Render() })},
		{"overhead", "control and tagging overhead (§5.3)",
			text(func(exp.Scale, int64) string { return exp.Overhead().Render() })},
		{"table4", "Tofino hardware resource usage (§6)",
			text(func(exp.Scale, int64) string { return exp.Table4() })},
		{"fig10", "selective fast-rerouting case study (§6.1)",
			text(func(s exp.Scale, seed int64) string { return exp.Figure10(s, seed).Render() })},
		{"fleet", "ISP-wide fleet: Abilene gray-link localization + gated reroute",
			func(s exp.Scale, seed int64) (string, []exp.BenchCell) {
				r := exp.FleetAbileneWorkers(s, seed, false, workers)
				return r.Render(), r.BenchCells(seed)
			}},
		{"fleet-chaos", "fleet survivability: localization vs mgmt-plane loss + correlator crash",
			text(func(s exp.Scale, seed int64) string { return exp.FleetChaos(s, seed).Render() })},
		{"fleet-verified", "fleet localization sweep with the verified-commit gate on",
			func(s exp.Scale, seed int64) (string, []exp.BenchCell) {
				r := exp.FleetAbileneWorkers(s, seed, true, workers)
				return r.Render(), r.BenchCells(seed)
			}},
		{"verified-reroute", "verified reroute: concurrent-failure chaos suite + check latency",
			func(s exp.Scale, seed int64) (string, []exp.BenchCell) {
				r := exp.VerifiedReroute(s, seed)
				epoch := time.Now()
				cells := append(r.BenchCells(), exp.VerifyLatencyCell(seed,
					func() float64 { return time.Since(epoch).Seconds() }))
				return r.Render(), cells
			}},
		{"hh-churn", "churning heavy hitters: dynamic vs static dedicated-counter allocation",
			func(s exp.Scale, seed int64) (string, []exp.BenchCell) {
				r := exp.HHChurn(s, seed)
				return r.Render(), r.BenchCells()
			}},
		{"fig11", "tree parameter sensitivity (Appendix D)",
			text(func(s exp.Scale, seed int64) string { return exp.Figure11(s, seed).Render() })},
		{"table5", "synthesized trace statistics (Appendix C)",
			text(func(s exp.Scale, _ int64) string { return exp.Table5(s) })},
		{"abl-strawman", "ablation: stop-and-wait vs §4.1 strawman",
			text(func(s exp.Scale, seed int64) string { return exp.AblationStrawman(s, seed).Render() })},
		{"abl-select", "ablation: zoom counter selection policy",
			text(func(s exp.Scale, seed int64) string { return exp.AblationSelection(s, seed).Render() })},
		{"abl-blink", "ablation: Blink vs FANcY on minority-flow failures",
			text(func(s exp.Scale, seed int64) string { return exp.AblationBlink(s, seed).Render() })},
		{"sweep-freq", "exchange-frequency sensitivity (§5.1.1 text)",
			text(func(s exp.Scale, seed int64) string { return exp.ExchangeFrequencySweep(s, seed).Render() })},
		{"sweep-delay", "link-delay sensitivity (§5 text)",
			text(func(s exp.Scale, seed int64) string { return exp.DelaySweep(s, seed).Render() })},
	}
}

func main() {
	var (
		list      = flag.Bool("list", false, "list experiments and exit")
		expt      = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		full      = flag.Bool("full", false, "paper-scale parameters (slow)")
		seed      = flag.Int64("seed", 20220822, "random seed")
		benchJSON = flag.String("bench-json", "", "write benchmark cells (TTL medians + wall-clock) to this JSON file")
		workers   = flag.Int("workers", 1, "trial-level parallelism of the fleet and fleet-verified sweeps (same results at any value)")
	)
	flag.Parse()
	if *workers < 1 {
		*workers = 1
	}

	all := experiments(*workers)
	if *list {
		for _, e := range all {
			fmt.Printf("%-10s %s\n", e.name, e.desc)
		}
		return
	}

	scale := exp.Quick
	if *full {
		scale = exp.Full
	}

	want := map[string]bool{}
	runAll := *expt == "all"
	if !runAll {
		for _, name := range strings.Split(*expt, ",") {
			want[strings.TrimSpace(name)] = true
		}
	}
	known := map[string]bool{}
	for _, e := range all {
		known[e.name] = true
	}
	var unknown []string
	for name := range want {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		fmt.Fprintf(os.Stderr, "unknown experiments: %s (use -list)\n", strings.Join(unknown, ", "))
		os.Exit(2)
	}

	var cells []exp.BenchCell
	for _, e := range all {
		if !runAll && !want[e.name] {
			continue
		}
		start := time.Now()
		out, ec := e.run(scale, *seed)
		wall := time.Since(start).Seconds()
		for i := range ec {
			ec[i].WallSeconds = wall
		}
		cells = append(cells, ec...)
		fmt.Println(out)
		fmt.Printf("[%s: %s scale, %.1fs]\n\n", e.name, scale, wall)
	}
	if *benchJSON != "" {
		if err := exp.WriteBenchJSON(*benchJSON, cells); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d benchmark cells to %s\n", len(cells), *benchJSON)
	}
}
