package fleet

import (
	"bytes"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"fancy/internal/fancy"
	"fancy/internal/mgmt"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/verify"
)

// sampleCheckpoint builds a checkpoint exercising every encoded field.
func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Time:          1500 * sim.Millisecond,
		Alarms:        7,
		Suppressed:    2,
		Localizations: 1,
		Reroutes:      1,
		Links: map[string]LinkCheckpoint{
			"seattle>sunnyvale": {
				Localized:   true,
				LocalizedAt: 1400 * sim.Millisecond,
				Affected:    []netsim.EntryID{3, 10},
				TreePaths:   2,
				Alarms:      5,
				Suppressed:  1,
				DownTimes:   []sim.Time{900 * sim.Millisecond},
				Seen:        []string{"ded|10|1000000", "tree|1.2|1100000"},
				Evidence: []fancy.Event{
					{Time: sim.Second, Port: 4, Kind: 1, Entry: 10, Diff: 42},
					{Time: 1100 * sim.Millisecond, Port: 4, Kind: 2, Path: []uint16{1, 2}, Diff: 17},
				},
				LastHealth: 2,
			},
			"denver>kansascity": {
				VerdictPending: true,
				IncidentStart:  1200 * sim.Millisecond,
				Flapping:       true,
			},
		},
		RestartsSeen:    map[string]int{"seattle": 1, "denver": 0},
		RestartObserved: map[string]sim.Time{"seattle": 800 * sim.Millisecond},
		EpochCur:        map[string]uint8{"seattle": 1, "denver": 0},
		EpochPrev:       map[string]uint8{"seattle": 0},
		RerouteSeen:     []string{"seattle>sunnyvale|10"},
		Seq: map[string]mgmt.SeqState{
			"agent-seattle": {Contig: 41, Above: []uint64{43, 45}},
			"agent-denver":  {Contig: 12},
		},
		VerifyLog: []VerifyDecision{
			{Key: "seattle>sunnyvale|1400000000|10", Outcome: verifyCommitted,
				Frame: verify.EncodeDelta(verify.NewDelta("seattle>sunnyvale",
					[]verify.Flip{verify.EntryFlip("seattle", 10, 2)}))},
			{Key: "denver>kansascity|1200000000|3", Outcome: verifyRejected},
		},
		VerifyHeld: []HeldReroute{
			{LinkKey: "denver>kansascity", Key: "denver>kansascity|1200000000|3", Entry: 3, Retries: 2},
		},
	}
}

func sampleMsgs() []*consMsg {
	cp := sampleCheckpoint()
	entry := &logEntry{Index: 9, Ballot: 7, Note: "verdict seattle>sunnyvale", Cp: cp}
	return []*consMsg{
		{Kind: consPrepare, From: 1, Ballot: 4},
		{Kind: consPromise, From: 2, Ballot: 4, Index: 8, AccBallot: 3, Entry: entry},
		{Kind: consPromise, From: 0, Ballot: 4}, // nothing accepted yet
		{Kind: consAccept, From: 1, Ballot: 4, Index: 9, Entry: entry},
		{Kind: consAccepted, From: 2, Ballot: 4, Index: 9},
		{Kind: consNack, From: 0, Ballot: 6},
		{Kind: consBeat, From: 1, Ballot: 4, Index: 9},
		{Kind: consBeat, From: 1, Ballot: 4, Index: 8, Entry: entry}, // retransmit
		{Kind: consAccept, From: 1, Ballot: 4, Index: 1,
			Entry: &logEntry{Index: 1, Ballot: 4, Note: "window", Cp: &Checkpoint{}}},
	}
}

// TestWireRoundtrip checks the canonical-form property: decoding and
// re-encoding any encoded message reproduces the original bytes exactly.
// Byte equality (rather than struct comparison) is the property the
// replicas actually rely on for deterministic transcripts.
func TestWireRoundtrip(t *testing.T) {
	for i, m := range sampleMsgs() {
		b := encodeConsensus(m)
		got, err := decodeConsensus(b)
		if err != nil {
			t.Fatalf("msg %d (%v): decode failed: %v", i, m.Kind, err)
		}
		if got.Kind != m.Kind || got.From != m.From || got.Ballot != m.Ballot ||
			got.Index != m.Index || got.AccBallot != m.AccBallot {
			t.Fatalf("msg %d: header mismatch: %+v vs %+v", i, got, m)
		}
		if !bytes.Equal(encodeConsensus(got), b) {
			t.Fatalf("msg %d (%v): decode∘encode not canonical", i, m.Kind)
		}
	}
}

// TestWireGolden pins the exact bytes of every sampleMsgs message against
// testdata/consensus.golden (one hex line per message): the round-trip
// tests cannot see an encoding change that is applied symmetrically to the
// encoder and the decoder, and replicas of different builds must agree on
// the bytes.
func TestWireGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/consensus.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(raw))
	msgs := sampleMsgs()
	if len(want) != len(msgs) {
		t.Fatalf("golden file has %d messages, sampleMsgs has %d", len(want), len(msgs))
	}
	for i, m := range msgs {
		b := encodeConsensus(m)
		if got := hex.EncodeToString(b); got != want[i] {
			t.Fatalf("msg %d (%v): encoding changed:\n got %s\nwant %s", i, m.Kind, got, want[i])
		}
		got, err := decodeConsensus(b)
		if err != nil {
			t.Fatalf("msg %d (%v): golden bytes rejected: %v", i, m.Kind, err)
		}
		if !bytes.Equal(encodeConsensus(got), b) {
			t.Fatalf("msg %d (%v): golden bytes do not re-encode", i, m.Kind)
		}
	}
}

// TestWireEncodingDeterministic re-encodes the same state repeatedly: map
// iteration order must never leak into the bytes.
func TestWireEncodingDeterministic(t *testing.T) {
	m := sampleMsgs()[3]
	first := encodeConsensus(m)
	for i := 0; i < 32; i++ {
		if !bytes.Equal(encodeConsensus(m), first) {
			t.Fatalf("encoding varies across runs (map order leak), run %d", i)
		}
	}
}

// TestWireRejects rejects truncations, trailing garbage and bad versions —
// every prefix of a valid message except the full message must fail.
func TestWireRejects(t *testing.T) {
	b := encodeConsensus(sampleMsgs()[1])
	for n := 0; n < len(b); n++ {
		if _, err := decodeConsensus(b[:n]); err == nil {
			t.Fatalf("accepted truncation to %d/%d bytes", n, len(b))
		}
	}
	if _, err := decodeConsensus(append(append([]byte(nil), b...), 0)); err == nil {
		t.Fatal("accepted trailing garbage")
	}
	bad := append([]byte(nil), b...)
	bad[0] = wireVersion + 1
	if _, err := decodeConsensus(bad); err == nil {
		t.Fatal("accepted wrong wire version")
	}
	if _, err := decodeConsensus(nil); err == nil {
		t.Fatal("accepted empty input")
	}

	withCp := func(cp *Checkpoint) []byte {
		return encodeConsensus(&consMsg{Kind: consAccept, Entry: &logEntry{Cp: cp}})
	}
	cp := sampleCheckpoint()
	cp.VerifyLog[0].Outcome = verifyOutcomeMax + 1
	if _, err := decodeConsensus(withCp(cp)); err == nil {
		t.Fatal("accepted verify outcome above verifyOutcomeMax")
	}
	cp = sampleCheckpoint()
	cp.VerifyLog[0].Frame = append(cp.VerifyLog[0].Frame, 0) // trailing byte
	if _, err := decodeConsensus(withCp(cp)); err == nil {
		t.Fatal("accepted a verify frame that is not a canonical delta")
	}
}
