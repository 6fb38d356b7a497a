package main

// A minimal reader for the gzipped profile.proto files runtime/pprof writes,
// and the per-layer attribution of CPU samples and allocation records.
// Only the fields the attribution needs are decoded: samples (location ids
// and values), locations (their line → function list, inlined callee
// first) and functions (names).

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
)

// profile is the decoded subset of a profile.proto message.
type profile struct {
	sampleTypes []string // "type/unit" per sample value index
	samples     []profSample
	stacks      map[uint64][]string // location id → function names, leaf first
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
	labels [][2]int64 // string-table indexes of each label's key and value
	label  map[string]string
}

// frames returns the sample's function names from leaf to root, inlined
// frames expanded.
func (p *profile) frames(s profSample) []string {
	var out []string
	for _, id := range s.locs {
		out = append(out, p.stacks[id]...)
	}
	return out
}

// valueIndex returns the index of the sample value of the given type
// ("cpu", "alloc_objects", ...), or -1.
func (p *profile) valueIndex(typ string) int {
	for i, t := range p.sampleTypes {
		if strings.HasPrefix(t, typ+"/") {
			return i
		}
	}
	return -1
}

// parseProfile decodes a gzipped (or raw) profile.proto message.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
	}
	var (
		strs      []string
		types     [][2]int64
		funcNames = map[uint64]int64{}
		locFuncs  = map[uint64][]uint64{}
		p         = &profile{stacks: map[uint64][]string{}}
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			})
			types = append(types, vt)
			return err
		case 2: // sample
			var s profSample
			err := eachField(b, func(n, w int, v uint64, pb []byte) error {
				switch n {
				case 3: // label
					var kv [2]int64
					s.labels = append(s.labels, kv)
					return eachField(pb, func(ln, _ int, lv uint64, _ []byte) error {
						if ln == 1 || ln == 2 {
							s.labels[len(s.labels)-1][ln-1] = int64(lv)
						}
						return nil
					})
				case 1:
					return appendVarints(&s.locs, w, v, pb)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, pb); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(lb, func(ln, _ int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	for _, vt := range types {
		p.sampleTypes = append(p.sampleTypes, str(vt[0])+"/"+str(vt[1]))
	}
	for i := range p.samples {
		for _, kv := range p.samples[i].labels {
			if p.samples[i].label == nil {
				p.samples[i].label = map[string]string{}
			}
			p.samples[i].label[str(kv[0])] = str(kv[1])
		}
	}
	for id, fns := range locFuncs {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcNames[f])
		}
		p.stacks[id] = names
	}
	return p, nil
}

// eachField walks the fields of one protobuf message. Varint fields pass
// their value in v, length-delimited fields their bytes in b; fixed-width
// fields are skipped (profile.proto has none the reader needs).
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			data = data[8:]
			continue
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("profile: bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints decodes a repeated varint field in either encoding: one
// value per field (wire type 0) or packed (wire type 2).
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// funcPackage returns the import path of a symbol name such as
// "fancy/internal/sim.(*Sim).Run" or "main.spin".
func funcPackage(name string) string {
	slash := strings.LastIndex(name, "/")
	dot := strings.Index(name[slash+1:], ".")
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// layerOf maps a package to the layer it is reported under: the module's
// internal packages by their first path element ("fancy/internal/fancy/tree"
// is fancy), the benchmark's own package as bench, and the Go runtime (with
// the standard library's internal packages) as runtime. Any other package
// returns "": it is charged to its caller.
func layerOf(pkg string) string {
	switch {
	case pkg == "main" || pkg == "fancy/perfbench": // the binary, or its tests
		return "bench"
	case strings.HasPrefix(pkg, "fancy/internal/"):
		rest := strings.TrimPrefix(pkg, "fancy/internal/")
		if i := strings.Index(rest, "/"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/"):
		return "runtime"
	}
	return ""
}

// selfLayer charges a CPU sample (frames leaf first) to a layer: the
// runtime when the leaf is runtime code, otherwise the nearest frame in the
// module or the benchmark, so a standard-library helper (sort, math/rand)
// counts toward the layer that called it. Stacks with no such frame are
// "other".
func selfLayer(frames []string) string {
	if len(frames) > 0 && layerOf(funcPackage(frames[0])) == "runtime" {
		return "runtime"
	}
	return allocLayer(frames)
}

// allocLayer charges an allocation (frames leaf first) to the nearest frame
// in the module or the benchmark: runtime.makeslice or strings.Builder.grow
// are charged to the code that asked for the memory.
func allocLayer(frames []string) string {
	for _, f := range frames {
		if l := layerOf(funcPackage(f)); l != "" && l != "runtime" {
			return l
		}
	}
	return "other"
}

// runFrame is the simulator's event loop; a sample or allocation whose
// stack contains it happened inside a sim.Run span.
const runFrame = "fancy/internal/sim.(*Sim).Run"

func contains(frames []string, name string) bool {
	for _, f := range frames {
		if f == name {
			return true
		}
	}
	return false
}

// cpuByLayer sums the CPU time (seconds) of the samples whose stack
// contains within (every sample when within is ""), per selfLayer.
func cpuByLayer(p *profile, within string) (map[string]float64, error) {
	return cpuByLayerLabeled(p, within, "", "")
}

// cpuByLayerLabeled is cpuByLayer over the samples that carry the pprof
// label key=value (all samples when key is "").
func cpuByLayerLabeled(p *profile, within, key, value string) (map[string]float64, error) {
	idx := p.valueIndex("cpu")
	if idx < 0 {
		return nil, errors.New("profile: no cpu sample value")
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		if idx >= len(s.values) {
			continue
		}
		if key != "" && s.label[key] != value {
			continue
		}
		fr := p.frames(s)
		if within != "" && !contains(fr, within) {
			continue
		}
		out[selfLayer(fr)] += float64(s.values[idx]) / 1e9
	}
	return out, nil
}

// memSnapshot is the cumulative allocation count per stack.
type memSnapshot map[string]runtime.MemProfileRecord

// takeMemSnapshot reads the runtime's allocation profile. Callers run a
// garbage collection first: records are published per GC cycle.
func takeMemSnapshot() memSnapshot {
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	out := make(memSnapshot, n)
	for _, r := range recs[:n] {
		key := fmt.Sprint(r.Stack())
		prev := out[key]
		r.AllocObjects += prev.AllocObjects
		r.AllocBytes += prev.AllocBytes
		out[key] = r
	}
	return out
}

// stackFrames resolves a record's program counters to function names,
// leaf first, inlined frames expanded.
func stackFrames(pcs []uintptr) []string {
	var out []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		if f.Function != "" {
			out = append(out, f.Function)
		}
		if !more {
			return out
		}
	}
}

// allocsByLayer returns the allocations made between two snapshots, per
// allocLayer, as object counts.
func allocsByLayer(before, after memSnapshot) map[string]float64 {
	out := map[string]float64{}
	for key, r := range after {
		d := r.AllocObjects - before[key].AllocObjects
		if d <= 0 {
			continue
		}
		out[allocLayer(stackFrames(r.Stack()))] += float64(d)
	}
	return out
}
