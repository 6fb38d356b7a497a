package main

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"
)

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "trial", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},   // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},  // sticks out of the parent
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 20},  // grandchild: not the trial's child
		{ID: 6, Parent: 1, Name: "d", Start: 50, End: 55},   // inside b
		{ID: 7, Parent: 1, Name: "e", Start: 200, End: 300}, // outside the parent entirely
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - (50 + 10), 2: 30 - 5, 3: 30, 4: 30, 5: 5, 6: 5, 7: 100}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestCovered(t *testing.T) {
	cases := []struct {
		ivs  [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}, {0, 10}}, 10},            // identical
		{[][2]int64{{0, 10}, {2, 3}}, 10},             // nested
		{[][2]int64{{5, 6}, {0, 2}}, 3},               // unsorted, disjoint
		{[][2]int64{{0, 4}, {4, 8}}, 8},               // touching
		{[][2]int64{{-5, 3}, {8, 50}, {20, 30}}, 5},   // clipped at both ends
		{[][2]int64{{12, 15}, {-3, -1}, {30, 40}}, 0}, // all outside
	}
	for _, c := range cases {
		if got := covered(0, 10, c.ivs); got != c.want {
			t.Errorf("covered(0, 10, %v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}

func TestLayerAttribution(t *testing.T) {
	pkgs := map[string]string{
		"fancy/internal/sim.(*Sim).Run":                        "fancy/internal/sim",
		"fancy/internal/fancy/tree.(*Tree).Hash":               "fancy/internal/fancy/tree",
		"fancy/internal/traffic.(*Driver).Schedule.func1":      "fancy/internal/traffic",
		"fancy/internal/exp.pick[...]":                         "fancy/internal/exp",
		"main.spin":                                            "main",
		"runtime.mallocgc":                                     "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":         "internal/runtime/maps",
		"math/rand.(*Rand).Int63":                              "math/rand",
		"gopkg.in/x.v1.Func":                                   "gopkg.in/x",
		"fancy/internal/netsim.(*direction).send":              "fancy/internal/netsim",
		"fancy/internal/fleet.(*Fleet).onEvent.func2.1":        "fancy/internal/fleet",
		"sort.Slice":                                           "sort",
		"fancy/internal/wire.Marshal":                          "fancy/internal/wire",
		"fancy/internal/mgmt.(*Network).Send":                  "fancy/internal/mgmt",
		"fancy/internal/verify.(*Model).walkAtom":              "fancy/internal/verify",
		"runtime/pprof.(*profileBuilder).addCPUData":           "runtime/pprof",
		"fancy/internal/telemetry.(*Server).Get":               "fancy/internal/telemetry",
		"fancy/internal/tcp.(*Sender).trySend":                 "fancy/internal/tcp",
		"fancy/internal/topo.Build":                            "fancy/internal/topo",
		"fancy/internal/fancy.(*Detector).sendControl":         "fancy/internal/fancy",
		"fancy/internal/exp.(*Scenario).Run.func2":             "fancy/internal/exp",
		"fancy/internal/hh.(*Sketch).Observe":                  "fancy/internal/hh",
		"fancy/internal/stats.Mean":                            "fancy/internal/stats",
		"fancy/internal/sim.(*Sim).Run.deferwrap1":             "fancy/internal/sim",
		"fancy/internal/dataplane.BuildHeavyHitter":            "fancy/internal/dataplane",
		"fancy/internal/baseline/netseer.(*Protocol).OnEgress": "fancy/internal/baseline/netseer",
	}
	for fn, want := range pkgs {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
	layers := map[string]string{
		"fancy/internal/fancy/tree": "fancy", "fancy/internal/sim": "sim", "main": "bench",
		"runtime": "runtime", "internal/runtime/maps": "runtime", "runtime/pprof": "runtime",
		"math/rand": "", "sort": "", "fancy/internal/baseline/netseer": "baseline",
	}
	for pkg, want := range layers {
		if got := layerOf(pkg); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", pkg, got, want)
		}
	}

	mapInNetsim := []string{"runtime.mapaccess1_fast64", "fancy/internal/netsim.(*Switch).Receive", runFrame}
	randInSim := []string{"math/rand.(*rngSource).Uint64", "math/rand.(*Rand).Int63", "fancy/internal/sim.(*Sim).Rand", runFrame}
	growInFleet := []string{"runtime.growslice", "strings.(*Builder).grow", "fmt.Sprintf", "fancy/internal/fleet.(*Fleet).alarm", runFrame}
	gcWorker := []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}
	stdOnly := []string{"sort.insertionSort", "sort.Slice"}
	for _, c := range []struct {
		frames      []string
		self, alloc string
	}{
		{mapInNetsim, "runtime", "netsim"},
		{randInSim, "sim", "sim"},
		{growInFleet, "runtime", "fleet"},
		{gcWorker, "runtime", "other"},
		{stdOnly, "other", "other"},
		{nil, "other", "other"},
	} {
		if got := selfLayer(c.frames); got != c.self {
			t.Errorf("selfLayer(%v) = %q, want %q", c.frames, got, c.self)
		}
		if got := allocLayer(c.frames); got != c.alloc {
			t.Errorf("allocLayer(%v) = %q, want %q", c.frames, got, c.alloc)
		}
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, data []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	return b.bytes(num, inner)
}

// TestCPUByLayer builds a CPU profile by hand — inlined frames, packed and
// unpacked repeated fields, a fixed64 field to skip — and checks the
// per-layer sums inside and outside sim.Run.
func TestCPUByLayer(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		runFrame, "fancy/internal/netsim.(*Switch).Receive", "runtime.mapaccess1_fast64",
		"fancy/internal/fancy.(*Detector).OnEgress", "fancy/internal/fancy/tree.hash",
		"fancy/internal/topo.Build", "main.main", "spin", "1"}
	var p pb
	p = p.bytes(1, pb(nil).varint(1, 1).varint(2, 2))
	p = p.bytes(1, pb(nil).varint(1, 3).varint(2, 4))
	// Functions 1..7 name strings 5..11.
	for i := 1; i <= 7; i++ {
		p = p.bytes(5, pb(nil).varint(1, uint64(i)).varint(2, uint64(i+4)))
	}
	line := func(fn uint64) []byte { return pb(nil).varint(1, fn).varint(2, 10) }
	// Location 1: Run. 2: netsim Receive. 3: runtime map access.
	// 4: tree.hash inlined into Detector.OnEgress. 5: topo.Build. 6: main.
	p = p.bytes(4, pb(nil).varint(1, 1).bytes(4, line(1)))
	p = p.bytes(4, pb(nil).varint(1, 2).bytes(4, line(2)))
	p = p.bytes(4, pb(nil).varint(1, 3).bytes(4, line(3)))
	p = p.bytes(4, pb(nil).varint(1, 4).bytes(4, line(5)).bytes(4, line(4)))
	p = p.bytes(4, pb(nil).varint(1, 5).bytes(4, line(6)))
	p = p.bytes(4, pb(nil).varint(1, 6).bytes(4, line(7)))
	// A fixed64 field (wire type 1) the reader must skip.
	p = append(binary.AppendUvarint(p, 99<<3|1), make([]byte, 8)...)
	p = p.bytes(2, pb(nil).packed(1, 3, 2, 1, 6).packed(2, 1, 10e6)) // runtime in netsim, in Run
	spinLabel := pb(nil).varint(1, 12).varint(2, 13)
	p = p.bytes(2, pb(nil).packed(1, 2, 1, 6).packed(2, 2, 20e6).bytes(3, spinLabel)) // netsim, in Run, spin=1
	p = p.bytes(2, pb(nil).varint(1, 4).varint(1, 1).packed(2, 3, 30e6))              // inlined tree → fancy, unpacked ids
	p = p.bytes(2, pb(nil).packed(1, 5, 6).packed(2, 4, 40e6))                        // topo, outside Run
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	p = p.varint(12, 10e6)

	prof, err := parseProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	if prof.valueIndex("cpu") != 1 {
		t.Fatalf("cpu value index %d, want 1", prof.valueIndex("cpu"))
	}
	in, err := cpuByLayer(prof, runFrame)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]float64{"runtime": 0.01, "netsim": 0.02, "fancy": 0.03}; !closeMaps(in, want) {
		t.Errorf("inside sim.Run: %v, want %v", in, want)
	}
	all, _ := cpuByLayer(prof, "")
	if want := map[string]float64{"runtime": 0.01, "netsim": 0.02, "fancy": 0.03, "topo": 0.04}; !closeMaps(all, want) {
		t.Errorf("whole profile: %v, want %v", all, want)
	}
	labeled, _ := cpuByLayerLabeled(prof, runFrame, "spin", "1")
	if want := map[string]float64{"netsim": 0.02}; !closeMaps(labeled, want) {
		t.Errorf("labeled spin=1: %v, want %v", labeled, want)
	}
	if _, err := parseProfile([]byte{0x0a, 0x05, 0x01}); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

func closeMaps(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range b {
		if math.Abs(a[k]-v) > 1e-12 {
			return false
		}
	}
	return true
}

// allocSite returns a real call stack whose leaf frame is in this package.
//
//go:noinline
func allocSite() []uintptr {
	pcs := make([]uintptr, 32)
	return pcs[:runtime.Callers(1, pcs)]
}

func TestAllocsByLayer(t *testing.T) {
	rec := func(objs int64, stk []uintptr) runtime.MemProfileRecord {
		r := runtime.MemProfileRecord{AllocObjects: objs, AllocBytes: 8 * objs}
		copy(r.Stack0[:], stk)
		return r
	}
	stk := allocSite()
	before := memSnapshot{"a": rec(5, stk)}
	after := memSnapshot{"a": rec(12, stk), "b": rec(0, stk)}
	if got := allocsByLayer(before, after); !closeMaps(got, map[string]float64{"bench": 7}) {
		t.Errorf("allocsByLayer = %v, want bench: 7", got)
	}
}

func TestSubSeeds(t *testing.T) {
	a, b := subSeeds(5, 12), subSeeds(5, 12)
	if !reflect.DeepEqual(a, b) || a[0] != 5 || len(a) != 12 {
		t.Fatalf("subSeeds(5, 12) = %v / %v", a, b)
	}
	seen := map[int64]bool{}
	for _, s := range append(a, subSeeds(6, 12)...) {
		if seen[s] || s < 0 {
			t.Fatalf("seed %d repeated or negative in %v", s, a)
		}
		seen[s] = true
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the metric tables the program
// prints and to the bound the self-test uses.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			metricDef
			Bound float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var e2e []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Name == "wall_s" && m.Bound != wallBound {
			t.Errorf("wall_s bound %v, self-test uses %v", m.Bound, wallBound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the printed metrics")
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the printed metrics")
	}
	listed := map[string]bool{}
	for _, w := range b.Workloads {
		listed[w.Name] = true
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not in the program", w.Name)
		} else if workloads[w.Name].unlisted != "" {
			t.Errorf("workload %q is in BENCHMARK.json but marked unlisted", w.Name)
		}
	}
	for name, w := range workloads {
		if w.unlisted == "" && !listed[name] {
			t.Errorf("workload %q is missing from BENCHMARK.json and not marked unlisted", name)
		}
	}
}
