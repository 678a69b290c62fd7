package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

func codecSpec() Spec {
	return Spec{
		Name: "codec-wl", Seed: 11, NumOps: 20000,
		LoadFrac: 0.25, StoreFrac: 0.1, FPFrac: 0.1, MulFrac: 0.02, DivFrac: 0.01,
		BranchHardFrac: 0.2, CodeFootprint: 64 << 10, CodeLocality: 0.7,
		DataFootprint: 2 << 20, DataLocality: 0.5,
		PointerChaseFrac: 0.05, DepDistMean: 8,
		LongChainFrac: 0.1, FusibleFrac: 0.3,
	}
}

func phasedSpec() Spec {
	s := codecSpec()
	s.Name = "codec-phased"
	s.Phases = []Phase{
		{Frac: 0.5, DataLocality: 0.9, PointerChaseFrac: 0, BranchNoise: 0},
		{Frac: 0.5, DataLocality: 0.1, PointerChaseFrac: 0.3, BranchNoise: 0.5},
	}
	return s
}

func burstySpec() Spec {
	s := codecSpec()
	s.Name = "codec-bursty"
	s.BurstFrac = 0.2
	s.BurstLen = 32
	return s
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, spec := range []Spec{codecSpec(), phasedSpec(), burstySpec()} {
		t.Run(spec.Name, func(t *testing.T) {
			orig := Materialize(spec)
			var buf bytes.Buffer
			if err := orig.Encode(&buf); err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := Decode(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got.NumOps() != orig.NumOps() {
				t.Fatalf("decoded %d ops, want %d", got.NumOps(), orig.NumOps())
			}
			var a, b MicroOp
			oc, gc := orig.Replay(), got.Replay()
			for i := 0; oc.Next(&a); i++ {
				if !gc.Next(&b) {
					t.Fatalf("decoded stream ends at op %d", i)
				}
				if a != b {
					t.Fatalf("op %d differs:\n  orig    %+v\n  decoded %+v", i, a, b)
				}
			}
			if gc.Next(&b) {
				t.Fatal("decoded stream longer than original")
			}
			if got.Spec().Content == "" {
				t.Error("decode left Content empty")
			}
			if got.Spec().ConfigHash() == spec.ConfigHash() {
				t.Error("file-backed spec should not share the generated spec's ConfigHash")
			}
		})
	}
}

// Re-encoding a decoded buffer must reproduce the file byte-for-byte:
// that is what makes the file checksum a stable content identity across
// export → import → export chains.
func TestReencodeByteStable(t *testing.T) {
	orig := Materialize(phasedSpec())
	var first bytes.Buffer
	if err := orig.Encode(&first); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := dec.Encode(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("re-encode of a decoded buffer is not byte-identical")
	}
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wl"+FileExt)
	orig := Materialize(codecSpec())
	if err := WriteFile(path, orig); err != nil {
		t.Fatal(err)
	}

	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec().SourceFile != path {
		t.Errorf("SourceFile = %q, want %q", got.Spec().SourceFile, path)
	}
	if got.NumOps() != orig.NumOps() {
		t.Fatalf("read %d ops, want %d", got.NumOps(), orig.NumOps())
	}

	spec, err := ReadFileSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Content != got.Spec().Content {
		t.Error("ReadFileSpec and ReadFile disagree on Content")
	}
	if spec.SourceFile != path {
		t.Errorf("ReadFileSpec SourceFile = %q, want %q", spec.SourceFile, path)
	}
	// SourceFile must not leak into identity: hashes keyed by Content only.
	moved := filepath.Join(dir, "renamed"+FileExt)
	if err := os.Rename(path, moved); err != nil {
		t.Fatal(err)
	}
	spec2, err := ReadFileSpec(moved)
	if err != nil {
		t.Fatal(err)
	}
	if spec2.ConfigHash() != spec.ConfigHash() {
		t.Error("moving a trace file changed its ConfigHash")
	}
}

func TestMaterializeSpecFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wl"+FileExt)
	orig := Materialize(burstySpec())
	if err := WriteFile(path, orig); err != nil {
		t.Fatal(err)
	}
	spec, err := ReadFileSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := MaterializeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	var a, b MicroOp
	oc, bc := orig.Replay(), buf.Replay()
	for oc.Next(&a) {
		if !bc.Next(&b) || a != b {
			t.Fatal("file-materialized stream differs from original")
		}
	}

	// A rewritten file no longer matches the registered Content hash.
	other := Materialize(codecSpec())
	if err := WriteFile(path, other); err != nil {
		t.Fatal(err)
	}
	if _, err := MaterializeSpec(spec); err == nil {
		t.Fatal("materializing against a rewritten file should fail the content check")
	}
}

// corruptCase is one hostile variant of a valid trace file.
type corruptCase struct {
	name string
	data []byte
	want string // substring the error must mention
}

// corruptions derives the corruption matrix from raw, a valid encoding
// with at least one op record.
func corruptions(raw []byte) []corruptCase {
	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), raw...)
		return f(b)
	}
	return []corruptCase{
		{"empty", nil, "header"},
		{"bad magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b }), "magic"},
		{"future version", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], FileVersion+1)
			return b
		}), "version"},
		{"huge spec length", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:16], maxSpecJSON+1)
			return b
		}), "spec section"},
		{"truncated mid-spec", raw[:20], "spec"},
		{"truncated mid-ops", raw[:len(raw)/2], "op"},
		{"missing checksum", raw[:len(raw)-checksumBytes], "checksum"},
		{"flipped op byte", mutate(func(b []byte) []byte {
			b[len(b)-checksumBytes-10] ^= 0xFF
			return b
		}), ""},
		{"flipped checksum byte", mutate(func(b []byte) []byte {
			b[len(b)-1] ^= 0xFF
			return b
		}), "checksum"},
		{"trailing garbage", append(append([]byte(nil), raw...), 0xAA), "trailing"},
		{"undefined kind", mutate(func(b []byte) []byte {
			// First op record starts after the 16-byte header, the spec
			// JSON, and the 8-byte count; kind is byte 40 of the record.
			specLen := binary.LittleEndian.Uint32(b[12:16])
			b[16+int(specLen)+8+40] = uint8(kindCount)
			return b
		}), "kind"},
		{"undefined flag bits", mutate(func(b []byte) []byte {
			specLen := binary.LittleEndian.Uint32(b[12:16])
			b[16+int(specLen)+8+41] |= 0x80
			return b
		}), "flag"},
	}
}

// Hostile inputs: every corruption decodes to an error, never a panic.
func TestDecodeRejectsCorruption(t *testing.T) {
	var good bytes.Buffer
	if err := Materialize(codecSpec()).Encode(&good); err != nil {
		t.Fatal(err)
	}
	for _, tc := range corruptions(good.Bytes()) {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("decode accepted corrupt input")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// FuzzDecode asserts the .mtrc import invariants over arbitrary bytes:
// Decode never panics, and a buffer it accepts re-encodes to exactly the
// bytes it was decoded from. The seeds are a small valid file, its
// corruption matrix and a valid file of two decode windows and a record.
func FuzzDecode(f *testing.F) {
	spec := codecSpec()
	spec.NumOps = 64
	var good bytes.Buffer
	if err := Materialize(spec).Encode(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	multi, _ := encodeOps(f, multiWindowOps)
	f.Add(multi)
	for _, tc := range corruptions(good.Bytes()) {
		f.Add(tc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := b.Encode(&out); err != nil {
			t.Fatalf("accepted buffer does not re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("re-encoding differs from the accepted input (%d vs %d bytes)", out.Len(), len(data))
		}
	})
}

// A header declaring MaxFileOps ops over a file that holds none must not
// reserve memory for them before the records fail to arrive.
func TestDecodeBoundsPreallocation(t *testing.T) {
	spec := codecSpec()
	spec.NumOps = MaxFileOps
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(FileMagic)
	data = binary.LittleEndian.AppendUint32(data, FileVersion)
	data = binary.LittleEndian.AppendUint32(data, uint32(len(specJSON)))
	data = append(data, specJSON...)
	data = binary.LittleEndian.AppendUint64(data, MaxFileOps)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Decode(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "read op 0") {
		t.Fatalf("truncated file: err = %v, want a failed op read", err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*maxPreallocOps*uint64(unsafe.Sizeof(MicroOp{})) {
		t.Errorf("Decode allocated %d MB for a %d-byte file", got>>20, len(data))
	}
}

func TestDecodeRejectsOpCountMismatch(t *testing.T) {
	var good bytes.Buffer
	if err := Materialize(codecSpec()).Encode(&good); err != nil {
		t.Fatal(err)
	}
	b := good.Bytes()
	specLen := binary.LittleEndian.Uint32(b[12:16])
	binary.LittleEndian.PutUint64(b[16+int(specLen):], uint64(codecSpec().NumOps+1))
	if _, err := Decode(bytes.NewReader(b)); err == nil {
		t.Fatal("decode accepted an op count that contradicts the spec")
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.mtrc")); err == nil {
		t.Fatal("reading a missing file should error")
	}
	if _, err := ReadFileSpec(filepath.Join(t.TempDir(), "nope.mtrc")); err == nil {
		t.Fatal("reading a missing file's spec should error")
	}
}
