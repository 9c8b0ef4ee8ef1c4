package binenc

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// primitives is one row per Reader read: a valid encoding, and a read
// that consumes exactly it and reports whether it got the value back.
var primitives = []struct {
	name string
	enc  []byte
	read func(r *Reader) bool
}{
	{"Uvarint/1-byte", binary.AppendUvarint(nil, 5), func(r *Reader) bool { return r.Uvarint() == 5 }},
	{"Uvarint/10-byte", binary.AppendUvarint(nil, math.MaxUint64), func(r *Reader) bool { return r.Uvarint() == math.MaxUint64 }},
	{"Varint/negative", binary.AppendVarint(nil, -300), func(r *Reader) bool { return r.Varint() == -300 }},
	{"Varint/min", binary.AppendVarint(nil, math.MinInt64), func(r *Reader) bool { return r.Varint() == math.MinInt64 }},
	{"String", AppendString(nil, "lineitem"), func(r *Reader) bool { return r.String() == "lineitem" }},
	{"String/empty", AppendString(nil, ""), func(r *Reader) bool { return r.String() == "" }},
	{"Bytes", AppendString(nil, "Q6"), func(r *Reader) bool { return string(r.Bytes()) == "Q6" }},
	{"U64", AppendU64(nil, 0xDEADBEEFCAFEF00D), func(r *Reader) bool { return r.U64() == 0xDEADBEEFCAFEF00D }},
	{"F64", AppendF64(nil, -0.125), func(r *Reader) bool { return r.F64() == -0.125 }},
	{"Byte", []byte{7}, func(r *Reader) bool { return r.Byte() == 7 }},
	{"Bool", AppendBool(nil, true), func(r *Reader) bool { return r.Byte() == 1 }},
	{"Count", append(binary.AppendUvarint(nil, 2), 1, 2, 3, 4), func(r *Reader) bool {
		return r.Count(2) == 2 && len(r.Rest()) == 4
	}},
}

func TestReaderRoundTripsEveryPrimitive(t *testing.T) {
	for _, p := range primitives {
		r := NewReader(p.enc)
		if !p.read(&r) {
			t.Errorf("%s: wrong value read back", p.name)
		}
		if err := r.End(p.name); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
	}
}

// TestReaderRejectsEveryStrictPrefix: a truncated encoding fails — it
// never panics and never reads past the input — and the failure sticks:
// the cursor is empty and every later read yields a zero value.
func TestReaderRejectsEveryStrictPrefix(t *testing.T) {
	for _, p := range primitives {
		for cut := 0; cut < len(p.enc); cut++ {
			r := NewReader(p.enc[:cut:cut])
			p.read(&r)
			first := r.Err()
			if first == nil {
				t.Errorf("%s: prefix of %d/%d bytes decoded", p.name, cut, len(p.enc))
				continue
			}
			if r.Len() != 0 {
				t.Errorf("%s: %d bytes still readable after a failure", p.name, r.Len())
			}
			if r.Uvarint() != 0 || r.Varint() != 0 || r.U64() != 0 || r.F64() != 0 || r.Byte() != 0 ||
				r.String() != "" || r.Bytes() != nil || r.Count(1) != 0 || len(r.Rest()) != 0 {
				t.Errorf("%s: a read after the failure returned a non-zero value", p.name)
			}
			r.Fail("a later complaint")
			if r.Err() != first || r.End("x") != first {
				t.Errorf("%s: first error %q was replaced by %q", p.name, first, r.Err())
			}
		}
	}
}

func TestReaderCount(t *testing.T) {
	for _, tc := range []struct {
		n         uint64
		remaining int
		minBytes  int
		ok        bool
	}{
		{0, 0, 8, true},
		{4, 32, 8, true},
		{5, 32, 8, false}, // 5 > 32/8
		{4, 31, 8, false}, // 31/8 == 3
		{3, 3, 1, true},
		{4, 3, 1, false},
		{3, 3, 0, true}, // minBytes < 1 counts as 1
		{4, 3, -7, false},
		{math.MaxUint64, 100, 1, false},
	} {
		r := NewReader(append(binary.AppendUvarint(nil, tc.n), make([]byte, tc.remaining)...))
		got := r.Count(tc.minBytes)
		if ok := r.Err() == nil; ok != tc.ok {
			t.Errorf("Count(%d) of %d over %d bytes: err %v, want ok=%v", tc.minBytes, tc.n, tc.remaining, r.Err(), tc.ok)
		} else if ok && (uint64(got) != tc.n || r.Len() != tc.remaining) {
			t.Errorf("Count(%d) = %d with %d left, want %d with %d", tc.minBytes, got, r.Len(), tc.n, tc.remaining)
		}
	}
}

func TestReaderEndAndFail(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.Byte()
	if err := r.End("header"); err == nil || !strings.Contains(err.Error(), "2 trailing bytes after header") {
		t.Errorf("End with 2 bytes unread = %v", err)
	}

	// End never masks an earlier failure, trailing bytes or not.
	r = NewReader([]byte{1, 2, 3})
	r.Fail("shape %d is not a shape", 9)
	if err := r.End("header"); err == nil || err.Error() != "shape 9 is not a shape" {
		t.Errorf("End after Fail = %v", err)
	}
	r.Fail("second")
	if err := r.Err(); err.Error() != "shape 9 is not a shape" {
		t.Errorf("Fail replaced the first error: %v", err)
	}

	// A string whose length prefix overruns the input fails on the
	// prefix, before any slicing.
	r = NewReader(append(binary.AppendUvarint(nil, math.MaxUint64), "abc"...))
	if r.Bytes() != nil || r.Err() == nil {
		t.Errorf("overrunning length decoded (err %v)", r.Err())
	}
}

// TestReaderAliasing: Bytes and Rest hand out windows onto the input;
// String copies out of it.
func TestReaderAliasing(t *testing.T) {
	buf := append(AppendString(AppendString(nil, "alias"), "copy"), "tail"...)
	r := NewReader(buf)
	b, s, rest := r.Bytes(), r.String(), r.Rest()
	for i := range buf {
		buf[i] = 'X'
	}
	if string(b) != "XXXXX" || string(rest) != "XXXX" {
		t.Errorf("Bytes/Rest do not alias the input: %q %q", b, rest)
	}
	if s != "copy" {
		t.Errorf("String aliased the input: %q", s)
	}
}

// FuzzReader drives a random read schedule: the fuzz input's first half
// picks the reads, its second half is the payload. Nothing may panic, a
// read may never grow the cursor, and once an error is set it stays.
func FuzzReader(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 5, 0x80, 1, 3, 'a', 'b', 'c', 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		schedule, payload := data[:len(data)/2], data[len(data)/2:]
		r := NewReader(payload)
		for _, op := range schedule {
			before, failed := r.Len(), r.Err()
			switch op % 8 {
			case 0:
				r.Uvarint()
			case 1:
				r.Varint()
			case 2:
				_ = r.String()
			case 3:
				r.Bytes()
			case 4:
				r.U64()
			case 5:
				r.F64()
			case 6:
				r.Byte()
			case 7:
				if n := r.Count(int(op) / 8); n > r.Len() {
					t.Fatalf("Count admitted %d elements over %d bytes", n, r.Len())
				}
			}
			if r.Len() > before || (failed != nil && (r.Err() != failed || r.Len() != 0)) {
				t.Fatalf("op %d: len %d -> %d, err %v -> %v", op%8, before, r.Len(), failed, r.Err())
			}
		}
	})
}
