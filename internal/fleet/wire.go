package fleet

// Deterministic binary wire format for the replicated-log consensus
// messages exchanged between correlator replicas over the management
// network (mgmt.DgramConsensus payloads).
//
// The in-process simulator could pass structs by pointer, but real replicas
// exchange bytes — and bytes are what a fuzzer can attack. The format is a
// field list over wire.Writer/wire.Reader, which own the canonical rule
// (minimal varints, 0/1 flags, length prefixes bounded by the remaining
// input, ascending string sets), so arbitrary input can produce an error
// but never a panic or a multi-gigabyte allocation (see
// FuzzDecodeConsensus). This file adds what is specific to the log: maps
// are emitted in sorted key order and absent optionals are a zero flag
// byte, so identical states produce identical bytes regardless of map
// iteration order, which same-seed transcript determinism requires; the
// decoder also checks ascending keys and entry sets, verifyOutcomeMax and
// that every VerifyLog frame is itself a canonical verify delta.

import (
	"cmp"
	"errors"
	"sort"

	"fancy/internal/fancy"
	"fancy/internal/mgmt"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/verify"
	"fancy/internal/wire"
)

// errWire rejects malformed consensus bytes.
var errWire = errors.New("fleet: malformed consensus message")

// wireVersion guards against cross-version replica traffic.
const wireVersion = 1

// consKind tags a consensus message.
type consKind uint8

// Consensus message kinds: the Paxos prepare/promise election pair, the
// accept/accepted replication pair, the stale-ballot nack, and the leader
// beat that carries the commit frontier.
const (
	consPrepare consKind = iota
	consPromise
	consAccept
	consAccepted
	consNack
	consBeat
)

func (k consKind) String() string {
	switch k {
	case consPrepare:
		return "prepare"
	case consPromise:
		return "promise"
	case consAccept:
		return "accept"
	case consAccepted:
		return "accepted"
	case consNack:
		return "nack"
	case consBeat:
		return "beat"
	}
	return "unknown"
}

// logEntry is one replicated-log record. Every entry carries a complete
// correlator checkpoint: committing entry k therefore subsumes every entry
// before it, which is the log's built-in compaction — an acceptor persists
// only its highest accepted entry, and the snapshot is the last committed
// entry (Checkpoint.Seq already embeds the management server's SeqCheckpoint
// state, so transport-level dedup survives failover too).
type logEntry struct {
	Index  uint64 // log position, 1-based
	Ballot uint64 // ballot under which the entry was proposed
	Note   string // human-readable trigger ("verdict seattle>sunnyvale", ...)
	Cp     *Checkpoint
}

// consMsg is one consensus datagram payload.
type consMsg struct {
	Kind   consKind
	From   uint8  // sender replica id
	Ballot uint64 // sender's ballot (prepare/accept) or promised ballot (nack)
	Index  uint64 // accepted/commit index, per kind
	// AccBallot is, in a promise, the ballot of the accepted entry being
	// reported back to the candidate (0 = none).
	AccBallot uint64
	Entry     *logEntry // accept payload, promise report, beat retransmit
}

// --- encoder ---

// encodeConsensus serializes a consensus message canonically.
func encodeConsensus(m *consMsg) []byte {
	w := &wire.Writer{B: make([]byte, 0, 64)}
	w.Byte(wireVersion)
	w.Byte(byte(m.Kind))
	w.Byte(m.From)
	w.U64(m.Ballot)
	w.U64(m.Index)
	w.U64(m.AccBallot)
	w.Bool(m.Entry != nil)
	if m.Entry != nil {
		encodeEntry(w, m.Entry)
	}
	return w.B
}

func encodeEntry(w *wire.Writer, e *logEntry) {
	w.U64(e.Index)
	w.U64(e.Ballot)
	w.Str(e.Note)
	w.Bool(e.Cp != nil)
	if e.Cp != nil {
		encodeCheckpoint(w, e.Cp)
	}
}

func encodeCheckpoint(w *wire.Writer, cp *Checkpoint) {
	putTime(w, cp.Time)
	putInt(w, cp.Alarms)
	putInt(w, cp.Suppressed)
	putInt(w, cp.Localizations)
	putInt(w, cp.Reroutes)
	putMap(w, cp.Links, encodeLink)
	putMap(w, cp.RestartsSeen, putInt)
	putMap(w, cp.RestartObserved, putTime)
	putMap(w, cp.EpochCur, (*wire.Writer).Byte)
	putMap(w, cp.EpochPrev, (*wire.Writer).Byte)
	w.Strs(cp.RerouteSeen)
	putMap(w, cp.Seq, func(w *wire.Writer, st mgmt.SeqState) {
		w.U64(st.Contig)
		putList(w, st.Above, (*wire.Writer).U64)
	})
	putList(w, cp.VerifyLog, func(w *wire.Writer, d VerifyDecision) {
		w.Str(d.Key)
		w.Byte(d.Outcome)
		w.Bytes(d.Frame)
	})
	putList(w, cp.VerifyHeld, func(w *wire.Writer, h HeldReroute) {
		w.Str(h.LinkKey)
		w.Str(h.Key)
		putEntry(w, h.Entry)
		putInt(w, h.Retries)
	})
}

func encodeLink(w *wire.Writer, lc LinkCheckpoint) {
	w.Bool(lc.Localized)
	putTime(w, lc.LocalizedAt)
	putList(w, lc.Affected, putEntry)
	putInt(w, lc.TreePaths)
	putInt(w, lc.Alarms)
	putInt(w, lc.Suppressed)
	w.Bool(lc.Flapping)
	putList(w, lc.DownTimes, putTime)
	w.Bool(lc.VerdictPending)
	putTime(w, lc.IncidentStart)
	w.Strs(lc.Seen)
	putList(w, lc.Evidence, encodeEvidence)
	w.Byte(byte(lc.LastHealth))
}

func encodeEvidence(w *wire.Writer, ev fancy.Event) {
	putTime(w, ev.Time)
	putInt(w, ev.Port)
	w.Byte(byte(ev.Kind))
	putEntry(w, ev.Entry)
	putList(w, ev.Path, func(w *wire.Writer, p uint16) { w.U64(uint64(p)) })
	w.U64(ev.Diff)
}

func putInt(w *wire.Writer, v int)              { w.I64(int64(v)) }
func putTime(w *wire.Writer, t sim.Time)        { w.I64(int64(t)) }
func putEntry(w *wire.Writer, e netsim.EntryID) { w.U64(uint64(e)) }

// putList writes a counted list.
func putList[T any](w *wire.Writer, xs []T, put func(*wire.Writer, T)) {
	w.U64(uint64(len(xs)))
	for _, x := range xs {
		put(w, x)
	}
}

// putMap writes a counted map in sorted key order (canonical encoding).
func putMap[V any](w *wire.Writer, m map[string]V, put func(*wire.Writer, V)) {
	w.U64(uint64(len(m)))
	for _, k := range sortedKeys(m) {
		w.Str(k)
		put(w, m[k])
	}
}

// sortedKeys returns a map's keys in sorted order (canonical encoding).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// --- decoder ---

// decodeConsensus parses a consensus message, rejecting malformed or
// trailing bytes.
func decodeConsensus(b []byte) (*consMsg, error) {
	r := wire.NewReader(b)
	if r.Byte() != wireVersion {
		return nil, errWire
	}
	m := &consMsg{Kind: consKind(r.Byte())}
	if m.Kind > consBeat {
		return nil, errWire
	}
	m.From = r.Byte()
	m.Ballot = r.U64()
	m.Index = r.U64()
	m.AccBallot = r.U64()
	if r.Bool() {
		m.Entry = decodeEntry(r)
	}
	if !r.Done() {
		return nil, errWire
	}
	return m, nil
}

func decodeEntry(r *wire.Reader) *logEntry {
	e := &logEntry{Index: r.U64(), Ballot: r.U64(), Note: r.Str()}
	if r.Bool() {
		e.Cp = decodeCheckpoint(r)
	}
	return e
}

// decodeCheckpoint, decodeLink and decodeEvidence list fields in wire
// order: Go evaluates the calls in a composite literal left to right.
func decodeCheckpoint(r *wire.Reader) *Checkpoint {
	return &Checkpoint{
		Time:            getTime(r),
		Alarms:          getInt(r),
		Suppressed:      getInt(r),
		Localizations:   getInt(r),
		Reroutes:        getInt(r),
		Links:           getMap(r, decodeLink),
		RestartsSeen:    getMap(r, getInt),
		RestartObserved: getMap(r, getTime),
		EpochCur:        getMap(r, (*wire.Reader).Byte),
		EpochPrev:       getMap(r, (*wire.Reader).Byte),
		RerouteSeen:     r.Strs(),
		Seq: getMap(r, func(r *wire.Reader) mgmt.SeqState {
			return mgmt.SeqState{Contig: r.U64(), Above: ascending(r, getList(r, (*wire.Reader).U64))}
		}),
		VerifyLog: getList(r, func(r *wire.Reader) VerifyDecision {
			d := VerifyDecision{Key: r.Str(), Outcome: r.Byte(), Frame: r.Bytes()}
			if d.Outcome > verifyOutcomeMax {
				r.Fail()
			}
			// A frame must itself be a canonical delta; a forged or
			// corrupted frame would otherwise be replayed into the
			// verifier model after a failover.
			if len(d.Frame) > 0 {
				if _, err := verify.DecodeDelta(d.Frame); err != nil {
					r.Fail()
				}
			}
			return d
		}),
		VerifyHeld: getList(r, func(r *wire.Reader) HeldReroute {
			return HeldReroute{LinkKey: r.Str(), Key: r.Str(), Entry: getEntry(r), Retries: getInt(r)}
		}),
	}
}

func decodeLink(r *wire.Reader) LinkCheckpoint {
	return LinkCheckpoint{
		Localized:      r.Bool(),
		LocalizedAt:    getTime(r),
		Affected:       ascending(r, getList(r, getEntry)),
		TreePaths:      getInt(r),
		Alarms:         getInt(r),
		Suppressed:     getInt(r),
		Flapping:       r.Bool(),
		DownTimes:      getList(r, getTime),
		VerdictPending: r.Bool(),
		IncidentStart:  getTime(r),
		Seen:           r.Strs(),
		Evidence:       getList(r, decodeEvidence),
		LastHealth:     Health(r.Byte()),
	}
}

func decodeEvidence(r *wire.Reader) fancy.Event {
	return fancy.Event{
		Time:  getTime(r),
		Port:  getInt(r),
		Kind:  fancy.EventKind(r.Byte()),
		Entry: getEntry(r),
		Path:  getList(r, (*wire.Reader).U16),
		Diff:  r.U64(),
	}
}

func getInt(r *wire.Reader) int              { return int(r.I64()) }
func getTime(r *wire.Reader) sim.Time        { return sim.Time(r.I64()) }
func getEntry(r *wire.Reader) netsim.EntryID { return netsim.EntryID(r.U32()) }

// getList reads what putList wrote (nil when empty).
func getList[T any](r *wire.Reader, get func(*wire.Reader) T) []T {
	n := r.Count()
	if n == 0 {
		return nil
	}
	xs := make([]T, 0, n)
	for i := 0; i < n && !r.Failed(); i++ {
		xs = append(xs, get(r))
	}
	return xs
}

// getMap reads what putMap wrote (nil when empty). Keys must be strictly
// ascending: duplicates and shuffles are non-canonical.
func getMap[V any](r *wire.Reader, get func(*wire.Reader) V) map[string]V {
	n := r.Count()
	if n == 0 {
		return nil
	}
	m := make(map[string]V, n)
	prev := ""
	for i := 0; i < n && !r.Failed(); i++ {
		k := r.Str()
		if i > 0 && k <= prev {
			r.Fail()
		}
		m[k] = get(r)
		prev = k
	}
	return m
}

// ascending fails r unless xs is strictly ascending: the encoder emits
// these sets sorted, so a duplicate or out-of-order element marks forged
// input.
func ascending[T cmp.Ordered](r *wire.Reader, xs []T) []T {
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			r.Fail()
		}
	}
	return xs
}
