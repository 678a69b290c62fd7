package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
)

// multiWindowOps spans two full decode windows plus one record, so a
// file of that many ops ends in a window holding a single record.
const multiWindowOps = 2*windowOps + 1

// encodeOps returns a valid encoding of codecSpec at numOps ops and the
// file offset of its first op record.
func encodeOps(t testing.TB, numOps int) ([]byte, int) {
	t.Helper()
	spec := codecSpec()
	spec.NumOps = numOps
	var buf bytes.Buffer
	if err := Materialize(spec).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	return raw, 16 + int(binary.LittleEndian.Uint32(raw[12:16])) + 8
}

// TestDecodeWindowBoundaries truncates a multi-window file at, and one
// byte either side of, every window boundary, and corrupts a kind or
// flag byte in the second window. Each error must read exactly as a
// record-at-a-time decoder words it: the first incomplete record with
// EOF when none of it arrived and unexpected EOF when part did, or the
// first undefined kind or flag.
func TestDecodeWindowBoundaries(t *testing.T) {
	raw, ops := encodeOps(t, multiWindowOps)
	const n = multiWindowOps
	end := ops + n*opRecordBytes // the checksum's offset
	type tc struct {
		name string
		data []byte
		want string
	}
	var cases []tc
	for _, k := range []int{0, windowOps, 2 * windowOps, n} {
		at := ops + k*opRecordBytes
		for _, cut := range []int{at - 1, at, at + 1} {
			var want string
			switch {
			case cut < ops:
				want = "trace: read op count: unexpected EOF"
			case cut == end:
				want = "trace: read checksum: EOF"
			case cut > end:
				want = "trace: read checksum: unexpected EOF"
			case (cut-ops)%opRecordBytes == 0:
				want = fmt.Sprintf("trace: read op %d of %d: EOF", (cut-ops)/opRecordBytes, n)
			default:
				want = fmt.Sprintf("trace: read op %d of %d: unexpected EOF", (cut-ops)/opRecordBytes, n)
			}
			cases = append(cases, tc{fmt.Sprintf("cut at op %d%+d", k, cut-at), raw[:cut], want})
		}
	}
	for _, i := range []int{windowOps, windowOps + 7, 2*windowOps - 1} {
		kind := append([]byte(nil), raw...)
		kind[ops+i*opRecordBytes+40] = uint8(kindCount)
		cases = append(cases, tc{fmt.Sprintf("kind of op %d", i), kind,
			fmt.Sprintf("trace: op %d has undefined kind %d", i, kindCount)})
		flags := append([]byte(nil), raw...)
		flags[ops+i*opRecordBytes+41] |= 0x80
		cases = append(cases, tc{fmt.Sprintf("flags of op %d", i), flags,
			fmt.Sprintf("trace: op %d has undefined flag bits %#x", i, flags[ops+i*opRecordBytes+41])})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Decode(bytes.NewReader(c.data))
			if err == nil || err.Error() != c.want {
				t.Errorf("err = %v, want %q", err, c.want)
			}
		})
	}

	// A read error other than EOF is reported as is, at the first record
	// it cuts short, however the reader splits the file.
	boom := errors.New("boom")
	cut := ops + windowOps*opRecordBytes + 5
	want := fmt.Sprintf("trace: read op %d of %d: boom", windowOps, n)
	for _, r := range []io.Reader{
		io.MultiReader(bytes.NewReader(raw[:cut]), iotest.ErrReader(boom)),
		iotest.OneByteReader(io.MultiReader(bytes.NewReader(raw[:cut]), iotest.ErrReader(boom))),
	} {
		if _, err := Decode(r); err == nil || err.Error() != want || !errors.Is(err, boom) {
			t.Errorf("err = %v, want %q", err, want)
		}
	}
}

// TestDecodeShortReads: a reader that returns a byte or half a buffer
// at a time decodes to the same buffer as one read.
func TestDecodeShortReads(t *testing.T) {
	raw, _ := encodeOps(t, multiWindowOps)
	want, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]io.Reader{
		"one byte": iotest.OneByteReader(bytes.NewReader(raw)),
		"half":     iotest.HalfReader(bytes.NewReader(raw)),
		"data+EOF": iotest.DataErrReader(bytes.NewReader(raw)),
	} {
		got, err := Decode(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Spec(), want.Spec()) || !reflect.DeepEqual(got.ops, want.ops) {
			t.Errorf("%s: decoded buffer differs from a one-read decode", name)
		}
	}
}

// TestDecodeAllocs pins decoding into a recycled backing store at the
// same small allocation count for 5K and 100K ops: the reader, the hash,
// the spec and the buffer, nothing per record or per window (21 with
// go1.24).
func TestDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const want = 21
	var counts []float64
	for _, numOps := range []int{5000, 100000} {
		raw, _ := encodeOps(t, numOps)
		var ops []MicroOp
		rd := bytes.NewReader(raw)
		n := testing.AllocsPerRun(20, func() {
			rd.Reset(raw)
			b, err := decode(rd, ops, true)
			if err != nil {
				t.Fatal(err)
			}
			ops = b.ReleaseOps()
		})
		counts = append(counts, n)
	}
	if counts[0] != counts[1] || counts[0] > want {
		t.Errorf("decode allocs at 5K and 100K ops = %v, want equal and at most %d", counts, want)
	}
}
