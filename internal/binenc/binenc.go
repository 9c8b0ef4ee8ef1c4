// Package binenc holds the binary codec primitives shared by the wire
// protocol (internal/server/wire) and the state-snapshot format
// (internal/persist). It has two halves and nothing else: the Append*
// functions, which write a field, and Reader, the one cursor that reads
// them back — varints, length-prefixed strings, IEEE-754 doubles —
// failing with an error, never a panic and never an out-of-range read,
// on truncated or hostile input. One implementation means one place to
// get the bounds checks right: binenc_test.go walks every strict prefix
// of every primitive, and the decoders built on it are fuzzed by
// FuzzWireDecode (wire frames) and FuzzRecordDecode (snapshot records).
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// AppendString appends a uvarint length prefix and the string bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendF64 appends an IEEE-754 double, little endian.
func AppendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendU64 appends a fixed-width uint64, little endian.
func AppendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendBool appends one byte: 1 for true, 0 for false.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Reader is a cursor over one payload whose first failure sticks: the
// failing read records its error and empties the cursor, so every later
// read fails too and returns a zero value. A decoder therefore reads its
// fields straight down and checks Err (or End) once at the bottom.
// Decode-only validation joins the same stream through Fail.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b. The Reader never writes to b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Len is the number of unread bytes; 0 after any failure.
func (r *Reader) Len() int { return len(r.b) }

// Err is the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records a validation failure exactly as a truncated read would:
// the first error is kept, the cursor is emptied.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.b = nil
}

// End closes a fixed-shape body: it returns the first failure if there
// was one, and otherwise rejects bytes left over after what.
func (r *Reader) End(what string) error {
	if len(r.b) != 0 {
		r.Fail("binenc: %d trailing bytes after %s", len(r.b), what)
	}
	return r.err
}

// Rest consumes and returns everything unread (aliasing the input).
func (r *Reader) Rest() []byte {
	b := r.b
	r.b = nil
	return b
}

// Uvarint consumes a uvarint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.Fail("binenc: bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint consumes a varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.Fail("binenc: bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Count consumes an element count and validates it against the bytes
// that remain, each element occupying at least minBytes (values below 1
// count as 1): a corrupt count can never make a decoder loop or allocate
// beyond the input's own size.
func (r *Reader) Count(minBytes int) int {
	v := r.Uvarint()
	if minBytes < 1 {
		minBytes = 1
	}
	if v > uint64(len(r.b)/minBytes) {
		r.Fail("binenc: count %d overruns the %d bytes that remain", v, len(r.b))
		return 0
	}
	return int(v)
}

// Bytes consumes a length-prefixed string but returns the raw sub-slice
// of the input instead of allocating a string. The slice aliases the
// input buffer and is valid only as long as the buffer is; callers that
// need the value past the buffer's lifetime must copy (or intern) it.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if n > uint64(len(r.b)) {
		r.Fail("binenc: string length %d overruns input", n)
		return nil
	}
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}

// String consumes a length-prefixed string, copying it out of the input.
func (r *Reader) String() string { return string(r.Bytes()) }

// errShort fails a fixed-width read. It is a ready-made value and short
// a leaf that sets it, so that U64, F64 and Byte — unlike the reads that
// format their complaint through Fail — stay small enough to inline into
// their callers.
var errShort = errors.New("binenc: truncated fixed-width field")

func (r *Reader) short() {
	if r.err == nil {
		r.err = errShort
	}
	r.b = nil
}

// U64 consumes a fixed-width uint64.
func (r *Reader) U64() uint64 {
	b := r.b
	if len(b) < 8 {
		r.short()
		return 0
	}
	r.b = b[8:]
	return binary.LittleEndian.Uint64(b)
}

// F64 consumes an IEEE-754 double.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Byte consumes one byte.
func (r *Reader) Byte() byte {
	b := r.b
	if len(b) < 1 {
		r.short()
		return 0
	}
	r.b = b[1:]
	return b[0]
}
