package hh

import (
	"errors"
	"fmt"

	"fancy/internal/netsim"
	"fancy/internal/wire"
)

// Report is one periodic top-k digest from a port's heavy-hitter stage,
// carried from the dataplane to the switch agent. The frame is a
// version-tagged field list over wire.Writer/wire.Reader, which own the
// canonical rule (minimal varints, range-checked fields, bounded lengths, no
// trailing bytes); this file adds the entry cap and the canonical entry
// order. A report that does not decode to exactly its canonical encoding is
// rejected, so the allocator can never be steered by a malformed or
// ambiguous frame.
type Report struct {
	Port    uint16
	Epoch   uint8  // detector wire epoch when the window closed
	Seq     uint32 // per-port report sequence number
	Packets uint64 // packets observed in the window
	Recircs uint64 // recirculated admissions in the window
	// Entries is ordered by descending count, ties by ascending entry —
	// the same canonical order TopK produces.
	Entries []EntryCount
}

const reportVersion = 1

// maxReportEntries bounds the decoded entry list; no real sketch
// configuration reports more, and the bound caps allocation on garbage.
const maxReportEntries = 4096

// EncodeReport serializes r in canonical form.
func EncodeReport(r *Report) []byte {
	w := &wire.Writer{B: make([]byte, 0, 16+8*len(r.Entries))}
	w.Byte(reportVersion)
	w.U64(uint64(r.Port))
	w.Byte(r.Epoch)
	w.U64(uint64(r.Seq))
	w.U64(r.Packets)
	w.U64(r.Recircs)
	w.U64(uint64(len(r.Entries)))
	for _, ec := range r.Entries {
		w.U64(uint64(ec.Entry))
		w.U64(uint64(ec.Count))
	}
	return w.B
}

var errBadReport = errors.New("hh: malformed report")

// DecodeReport parses and validates a canonical report frame.
func DecodeReport(b []byte) (*Report, error) {
	if len(b) == 0 || b[0] != reportVersion {
		return nil, fmt.Errorf("%w: bad version", errBadReport)
	}
	r := wire.NewReader(b[1:])
	rep := &Report{
		Port:    r.U16(),
		Epoch:   r.Byte(),
		Seq:     r.U32(),
		Packets: r.U64(),
		Recircs: r.U64(),
	}
	n := r.Count()
	if n > maxReportEntries {
		r.Fail()
	}
	var prev EntryCount
	for i := 0; i < n; i++ {
		ec := EntryCount{Entry: netsim.EntryID(r.U32()), Count: r.U32()}
		if r.Failed() {
			break
		}
		// Enforce the canonical order: strictly descending by count,
		// ties strictly ascending by entry (which also bans duplicates).
		if i > 0 {
			if ec.Count > prev.Count || (ec.Count == prev.Count && ec.Entry <= prev.Entry) {
				return nil, fmt.Errorf("%w: entries out of canonical order", errBadReport)
			}
		}
		rep.Entries = append(rep.Entries, ec)
		prev = ec
	}
	if !r.Done() {
		return nil, errBadReport
	}
	return rep, nil
}
