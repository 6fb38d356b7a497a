package wire

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzUnmarshal checks that arbitrary input never panics the parser and
// that anything it accepts re-marshals to a message it accepts again.
func FuzzUnmarshal(f *testing.F) {
	// Seed with valid encodings of each message type.
	seeds := []*Message{
		{Header: Header{Type: MsgStart, Kind: KindDedicated, Session: 1, Link: 2, Unit: 3}},
		{Header: Header{Type: MsgStartACK, Kind: KindTree, Session: 9, Unit: TreeUnit}},
		{Header: Header{Type: MsgReport, Kind: KindDedicated, Session: 7}, Counters: []uint64{1, 2, 3}},
		{
			Header:  Header{Type: MsgStart, Kind: KindTree, Session: 5},
			Targets: []ZoomTarget{{Path: []uint16{1}}, {Path: []uint16{1, 7}}},
		},
		// Custom sessions: application-defined units above customUnitBase,
		// with Report payloads shaped by the application (here a size
		// histogram) rather than by the counter layout.
		{Header: Header{Type: MsgStart, Kind: KindCustom, Epoch: 3, Session: 4, Link: 1, Unit: 0xf000}},
		{Header: Header{Type: MsgStop, Kind: KindCustom, Epoch: 255, Session: 4, Unit: 0xf000}},
		{
			Header:   Header{Type: MsgReport, Kind: KindCustom, Epoch: 7, Session: 6, Unit: 0xf001},
			Counters: []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1 << 40},
		},
	}
	for _, m := range seeds {
		f.Add(m.Marshal(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := Unmarshal(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Round trip: re-marshal and parse again; headers must agree.
		re := m.Marshal(nil)
		m2, _, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-marshal of accepted message rejected: %v", err)
		}
		if m2.Header != m.Header {
			t.Fatalf("headers differ after round trip: %+v vs %+v", m2.Header, m.Header)
		}
		if len(m2.Counters) != len(m.Counters) || len(m2.Targets) != len(m.Targets) {
			t.Fatal("payload shape differs after round trip")
		}
	})
}

// TestSingleBitFlipsDetected corrupts every bit of every byte of valid
// messages, one at a time — the exact fault the chaos injector's control
// corruption produces. Each flip must yield a recognized parse error
// (normally ErrChecksum; flips in the version or length fields may surface
// as ErrVersion/ErrTruncl first) or, at worst, a parse whose header is
// byte-identical to the original. What must never happen: a panic, or a
// silently different header steering a detector FSM.
func TestSingleBitFlipsDetected(t *testing.T) {
	msgs := []*Message{
		{Header: Header{Type: MsgStart, Kind: KindDedicated, Epoch: 1, Session: 3, Link: 1, Unit: 2}},
		{Header: Header{Type: MsgStartACK, Kind: KindTree, Epoch: 9, Session: 12, Unit: TreeUnit}},
		{
			Header:   Header{Type: MsgReport, Kind: KindDedicated, Epoch: 200, Session: 7},
			Counters: []uint64{42, 0, 1 << 31},
		},
		{
			Header:  Header{Type: MsgStart, Kind: KindTree, Epoch: 4, Session: 5},
			Targets: []ZoomTarget{{Path: []uint16{1}}, {Path: []uint16{1, 7}}},
		},
		{Header: Header{Type: MsgStop, Kind: KindCustom, Epoch: 17, Session: 9, Unit: 0xf000}},
	}
	known := []error{ErrShort, ErrChecksum, ErrVersion, ErrTruncl}
	for mi, m := range msgs {
		orig := m.Marshal(nil)
		for i := range orig {
			for bit := 0; bit < 8; bit++ {
				buf := append([]byte(nil), orig...)
				buf[i] ^= 1 << bit
				got, _, err := Unmarshal(buf)
				if err != nil {
					ok := false
					for _, k := range known {
						if errors.Is(err, k) {
							ok = true
							break
						}
					}
					if !ok {
						t.Fatalf("msg %d byte %d bit %d: unrecognized error %v", mi, i, bit, err)
					}
					continue
				}
				if got.Header != m.Header {
					t.Fatalf("msg %d byte %d bit %d: corrupted message parsed with a different header: %+v vs %+v",
						mi, i, bit, got.Header, m.Header)
				}
			}
		}
	}
}

// FuzzParseTag: the 2-byte tag parser must never panic and always round
// trip.
func FuzzParseTag(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{255, 255})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		tag, err := ParseTag(data)
		if err != nil {
			if len(data) >= TagSize {
				t.Fatal("well-sized tag rejected")
			}
			return
		}
		if !bytes.Equal(AppendTag(nil, tag), data[:TagSize]) {
			t.Fatal("tag round trip failed")
		}
	})
}

// FuzzCanonical drives the canonical Reader with an arbitrary sequence of
// reads (each op byte picks one) over arbitrary bytes. No input may panic;
// a failed read and every read after it must return the zero value; string
// sets must come back strictly ascending; and whenever the sequence ends
// in Done, writing the values back through Writer must reproduce the input
// exactly — the property the fleet, verify and hh formats inherit.
func FuzzCanonical(f *testing.F) {
	every := &Writer{}
	every.Byte(7)
	every.Bool(true)
	every.U64(300)
	every.I64(-5)
	every.U64(1<<32 - 1)
	every.U64(1<<16 - 1)
	every.U64(0)
	every.Str("ab")
	every.Strs([]string{"a", "b"})
	every.Bytes([]byte{0, 1})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, every.B)
	f.Add([]byte{2}, []byte{0x80, 0x00})             // non-minimal varint
	f.Add([]byte{2}, bytes.Repeat([]byte{0xff}, 11)) // overflow
	f.Add([]byte{1}, []byte{2})                      // flag byte other than 0/1
	f.Add([]byte{4, 5}, []byte{0x80, 0x80, 0x80, 0x80, 0x10, 0x80, 0x80, 0x04})
	f.Add([]byte{8}, []byte{2, 1, 'b', 1, 'a'}) // descending set
	f.Add([]byte{7, 0}, []byte{5, 'a'})         // length beyond the input

	f.Fuzz(func(t *testing.T, ops, data []byte) {
		r := NewReader(data)
		w := &Writer{}
		for i, op := range ops {
			var zero bool
			switch op % 10 {
			case 0:
				v := r.Byte()
				w.Byte(v)
				zero = v == 0
			case 1:
				v := r.Bool()
				w.Bool(v)
				zero = !v
			case 2:
				v := r.U64()
				w.U64(v)
				zero = v == 0
			case 3:
				v := r.I64()
				w.I64(v)
				zero = v == 0
			case 4:
				v := r.U32()
				w.U64(uint64(v))
				zero = v == 0
			case 5:
				v := r.U16()
				w.U64(uint64(v))
				zero = v == 0
			case 6:
				v := r.Count()
				w.U64(uint64(v))
				zero = v == 0
			case 7:
				v := r.Str()
				w.Str(v)
				zero = v == ""
			case 8:
				v := r.Strs()
				for j := 1; j < len(v); j++ {
					if v[j] <= v[j-1] {
						t.Fatalf("op %d: Strs returned %q, not strictly ascending", i, v)
					}
				}
				w.Strs(v)
				zero = v == nil
			case 9:
				v := r.Bytes()
				w.Bytes(v)
				zero = v == nil
			}
			if r.Failed() && !zero {
				t.Fatalf("op %d (%d) returned a non-zero value on or after a failure", i, op%10)
			}
		}
		if r.Done() && !bytes.Equal(w.B, data) {
			t.Fatalf("accepted non-canonical input:\n in: %x\nout: %x", data, w.B)
		}
	})
}
