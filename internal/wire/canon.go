package wire

// Canonical codec for the control-plane formats built on top of the
// counting protocol: the replicated correlator log (fleet), the reroute
// delta frames (verify) and the heavy-hitter reports (hh) are field lists
// written with Writer and read back with Reader. The rule that makes them
// canonical lives here, once: integers are minimal varints (zigzag for
// signed), flags are one byte 0 or 1, strings and collections carry a
// length prefix bounded by the remaining input (so a hostile prefix cannot
// drive a huge allocation), and string sets are strictly ascending. Valid
// input and canonical input are therefore the same set: whatever a format
// decodes re-encodes to the identical bytes, which replica transcripts and
// the fuzz targets rely on.

import "encoding/binary"

// Writer appends canonical fields to B.
type Writer struct{ B []byte }

// U64 appends a minimal unsigned varint.
func (w *Writer) U64(v uint64) { w.B = binary.AppendUvarint(w.B, v) }

// I64 appends a minimal zigzag varint.
func (w *Writer) I64(v int64) { w.B = binary.AppendVarint(w.B, v) }

// Byte appends one raw byte.
func (w *Writer) Byte(v byte) { w.B = append(w.B, v) }

// Bool appends a flag byte: 1 for true, 0 for false.
func (w *Writer) Bool(v bool) {
	if v {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Str appends a length-prefixed string.
func (w *Writer) Str(s string) {
	w.U64(uint64(len(s)))
	w.B = append(w.B, s...)
}

// Strs appends a counted string list. The caller supplies it sorted and
// unique; Reader.Strs rejects anything else.
func (w *Writer) Strs(ss []string) {
	w.U64(uint64(len(ss)))
	for _, s := range ss {
		w.Str(s)
	}
}

// Bytes appends a length-prefixed byte string.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	w.B = append(w.B, b...)
}

// Reader parses canonical fields. A failure latches: every later read
// returns the zero value. Formats add their own checks with Fail and end
// with Done.
type Reader struct {
	b   []byte
	bad bool
}

// NewReader reads b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Fail marks the input malformed; every later read returns the zero value.
func (r *Reader) Fail() {
	r.bad = true
	r.b = nil
}

// Failed reports whether any read or format check has failed.
func (r *Reader) Failed() bool { return r.bad }

// Done reports whether the whole input parsed: no failure and no trailing
// bytes.
func (r *Reader) Done() bool { return !r.bad && len(r.b) == 0 }

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if len(r.b) == 0 {
		r.Fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Bool reads a flag byte; anything but 0 or 1 is non-canonical.
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.Fail()
	return false
}

// U64 reads a minimal unsigned varint.
func (r *Reader) U64() uint64 {
	v, n := binary.Uvarint(r.b)
	return r.varint(v, n)
}

// I64 reads a minimal zigzag varint.
func (r *Reader) I64() int64 {
	v, n := binary.Varint(r.b)
	return int64(r.varint(uint64(v), n))
}

// varint consumes an n-byte varint of value v. n <= 0 is truncation or
// overflow; a zero final byte of a multi-byte varint is a non-minimal
// encoding Writer never produces.
func (r *Reader) varint(v uint64, n int) uint64 {
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.Fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// U32 reads a U64 that must fit 32 bits (a wider value would silently
// truncate and break canonical re-encoding).
func (r *Reader) U32() uint32 { return uint32(r.atMost(1<<32 - 1)) }

// U16 reads a U64 that must fit 16 bits.
func (r *Reader) U16() uint16 { return uint16(r.atMost(1<<16 - 1)) }

func (r *Reader) atMost(limit uint64) uint64 {
	v := r.U64()
	if v > limit {
		r.Fail()
		return 0
	}
	return v
}

// Count reads a length prefix bounded by the remaining input.
func (r *Reader) Count() int {
	v := r.U64()
	if v > uint64(len(r.b)) {
		r.Fail()
		return 0
	}
	return int(v)
}

// take consumes n bytes; Count has already bounded n by the input.
func (r *Reader) take(n int) []byte {
	b := r.b[:n:n]
	r.b = r.b[n:]
	return b
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.take(r.Count())) }

// Strs reads a counted list of strictly ascending strings (nil when
// empty); a duplicate or out-of-order element is non-canonical.
func (r *Reader) Strs() []string {
	n := r.Count()
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		s := r.Str()
		if r.bad || (i > 0 && s <= out[i-1]) {
			r.Fail()
			return nil
		}
		out = append(out, s)
	}
	return out
}

// Bytes reads a length-prefixed byte string into a fresh slice (nil when
// empty), so the result never aliases the input.
func (r *Reader) Bytes() []byte {
	if n := r.Count(); n > 0 {
		return append([]byte(nil), r.take(n)...)
	}
	return nil
}
