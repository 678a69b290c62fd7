// Trace file codec: a versioned binary on-disk format for materialized
// µop streams, so workloads can leave the process that generated them —
// exported by cmd/tracetool, imported as file-backed suites, and run
// through the same store-keyed pipeline as generated traces.
//
// Layout (all integers little-endian):
//
//	offset  size  field
//	0       8     magic "MECPITRC"
//	8       4     format version (currently 1)
//	12      4     spec section length S
//	16      S     spec as strict JSON (Content/SourceFile cleared)
//	16+S    8     op count N (must equal spec.NumOps)
//	24+S    42×N  op records (see below)
//	end-32  32    SHA-256 over every preceding byte
//
// Op record, 42 bytes: Seq(8) PC(8) Addr(8) Target(8) Dep1(4) Dep2(4)
// Kind(1) flags(1), where flags bit0=Taken bit1=InstrFirst bit2=FuseHead
// bit3=FuseTail and the remaining bits must be zero.
//
// Versioning policy: any layout change bumps FileVersion; Decode rejects
// every version it was not built for rather than guessing. The trailing
// checksum doubles as the file's content identity — Decode folds it into
// Spec.Content, which is what derives run-store keys for file-backed
// workloads.

package trace

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/atomicfile"
)

const (
	// FileMagic opens every trace file.
	FileMagic = "MECPITRC"
	// FileVersion is the format version this build reads and writes.
	FileVersion = 1
	// FileExt is the conventional trace file extension.
	FileExt = ".mtrc"

	// MaxFileOps caps the op count Decode will allocate for, so a
	// malformed header cannot demand an absurd allocation (64Mi ops is
	// ~30× the largest suite workload).
	MaxFileOps = 1 << 26

	// maxPreallocOps bounds the ops Decode reserves before reading
	// them, well above every suite workload.
	maxPreallocOps = 1 << 20

	opRecordBytes = 42
	maxSpecJSON   = 1 << 20
	checksumBytes = sha256.Size

	// readBufferBytes sizes decode's read buffer, and windowOps is how
	// many op records it hashes and parses at once: as many as the
	// buffer holds.
	readBufferBytes = 1 << 16
	windowOps       = readBufferBytes / opRecordBytes
)

// Op record flag bits.
const (
	flagTaken = 1 << iota
	flagInstrFirst
	flagFuseHead
	flagFuseTail
	flagsValid = flagTaken | flagInstrFirst | flagFuseHead | flagFuseTail
)

// Encode writes the buffer's full stream (regardless of cursor position)
// in the versioned binary format. The embedded spec is normalized —
// Content and SourceFile cleared — so exporting an imported buffer
// re-encodes byte-identically and the checksum only ever covers
// generation parameters plus the ops themselves.
func (b *Buffer) Encode(w io.Writer) error {
	if len(b.ops) != b.spec.NumOps {
		return fmt.Errorf("trace: encode %s: buffer holds %d ops, spec declares %d (released backing store?)",
			b.spec.Name, len(b.ops), b.spec.NumOps)
	}
	norm := b.spec
	norm.Content = ""
	norm.SourceFile = ""
	specJSON, err := norm.AppendJSON(nil)
	if err != nil {
		return fmt.Errorf("trace: encode %s: marshal spec: %v", b.spec.Name, err)
	}
	if len(specJSON) > maxSpecJSON {
		return fmt.Errorf("trace: encode %s: spec section %d bytes exceeds %d", b.spec.Name, len(specJSON), maxSpecJSON)
	}

	bw := bufio.NewWriter(w)
	h := sha256.New()
	mw := io.MultiWriter(bw, h)

	var hdr [16]byte
	copy(hdr[:8], FileMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], FileVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(specJSON)))
	if _, err := mw.Write(hdr[:]); err != nil {
		return fmt.Errorf("trace: encode %s: %w", b.spec.Name, err)
	}
	if _, err := mw.Write(specJSON); err != nil {
		return fmt.Errorf("trace: encode %s: %w", b.spec.Name, err)
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(len(b.ops)))
	if _, err := mw.Write(cnt[:]); err != nil {
		return fmt.Errorf("trace: encode %s: %w", b.spec.Name, err)
	}

	var rec [opRecordBytes]byte
	for i := range b.ops {
		op := &b.ops[i]
		binary.LittleEndian.PutUint64(rec[0:8], op.Seq)
		binary.LittleEndian.PutUint64(rec[8:16], op.PC)
		binary.LittleEndian.PutUint64(rec[16:24], op.Addr)
		binary.LittleEndian.PutUint64(rec[24:32], op.Target)
		binary.LittleEndian.PutUint32(rec[32:36], op.Dep1)
		binary.LittleEndian.PutUint32(rec[36:40], op.Dep2)
		rec[40] = uint8(op.Kind)
		var flags uint8
		if op.Taken {
			flags |= flagTaken
		}
		if op.InstrFirst {
			flags |= flagInstrFirst
		}
		if op.FuseHead {
			flags |= flagFuseHead
		}
		if op.FuseTail {
			flags |= flagFuseTail
		}
		rec[41] = flags
		if _, err := mw.Write(rec[:]); err != nil {
			return fmt.Errorf("trace: encode %s: %w", b.spec.Name, err)
		}
	}

	if _, err := bw.Write(h.Sum(nil)); err != nil {
		return fmt.Errorf("trace: encode %s: %w", b.spec.Name, err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: encode %s: %w", b.spec.Name, err)
	}
	return nil
}

// Decode reads one trace file from r. It is strict: wrong magic,
// unknown versions, malformed or unknown spec fields, op-count
// mismatches, undefined kinds or flag bits, checksum mismatches,
// truncation, and trailing garbage all return errors — Decode never
// panics on hostile input. The returned buffer's spec carries the
// verified file checksum in Content.
func Decode(r io.Reader) (*Buffer, error) {
	return decode(r, nil, true)
}

// decode is Decode with an optional recycled backing store (see
// MaterializeSpecInto) and a switch for materializing ops at all: when
// keepOps is false the records are integrity-checked and hashed but
// thrown away, which is how ReadFileSpec verifies a file it is only
// listing.
func decode(r io.Reader, ops []MicroOp, keepOps bool) (*Buffer, error) {
	br := bufio.NewReaderSize(r, readBufferBytes)
	h := sha256.New()
	tr := io.TeeReader(br, h)

	var hdr [16]byte
	if _, err := io.ReadFull(tr, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	if string(hdr[:8]) != FileMagic {
		return nil, fmt.Errorf("trace: bad magic %q: not a trace file", hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != FileVersion {
		return nil, fmt.Errorf("trace: unsupported trace file version %d (this build reads version %d)", v, FileVersion)
	}
	specLen := binary.LittleEndian.Uint32(hdr[12:16])
	if specLen == 0 || specLen > maxSpecJSON {
		return nil, fmt.Errorf("trace: spec section of %d bytes outside (0, %d]", specLen, maxSpecJSON)
	}

	specJSON := make([]byte, specLen)
	if _, err := io.ReadFull(tr, specJSON); err != nil {
		return nil, fmt.Errorf("trace: read spec section: %w", err)
	}
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(specJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("trace: decode spec: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("trace: trailing data after spec JSON")
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("trace: file spec invalid: %w", err)
	}

	var cnt [8]byte
	if _, err := io.ReadFull(tr, cnt[:]); err != nil {
		return nil, fmt.Errorf("trace: read op count: %w", err)
	}
	n := binary.LittleEndian.Uint64(cnt[:])
	if n != uint64(spec.NumOps) {
		return nil, fmt.Errorf("trace: file has %d ops but spec declares NumOps=%d", n, spec.NumOps)
	}
	if n > MaxFileOps {
		return nil, fmt.Errorf("trace: %d ops exceed the %d-op file cap", n, MaxFileOps)
	}

	if keepOps {
		// The count is untrusted until its records arrive: reserve at
		// most maxPreallocOps up front, so a short hostile file cannot
		// demand a MaxFileOps-sized allocation; append grows the rest.
		if want := min(n, maxPreallocOps); uint64(cap(ops)) < want {
			ops = make([]MicroOp, 0, want)
		}
		ops = ops[:0]
	}
	// The records are hashed and parsed a window at a time: a whole
	// number of them, as many as the reader's buffer holds, peeked,
	// hashed with one Write and discarded. A short window fails at its
	// first incomplete record, with EOF when none of it arrived and
	// unexpected EOF when part did.
	for i := uint64(0); i < n; {
		want := min(n-i, windowOps) * opRecordBytes
		win, err := br.Peek(int(want))
		whole := len(win) - len(win)%opRecordBytes
		h.Write(win[:whole])
		for off := 0; off < whole; off, i = off+opRecordBytes, i+1 {
			rec := win[off : off+opRecordBytes]
			kind := rec[40]
			if kind >= uint8(kindCount) {
				return nil, fmt.Errorf("trace: op %d has undefined kind %d", i, kind)
			}
			flags := rec[41]
			if flags&^uint8(flagsValid) != 0 {
				return nil, fmt.Errorf("trace: op %d has undefined flag bits %#x", i, flags)
			}
			if !keepOps {
				continue
			}
			ops = append(ops, MicroOp{
				Seq:        binary.LittleEndian.Uint64(rec[0:8]),
				Kind:       Kind(kind),
				PC:         binary.LittleEndian.Uint64(rec[8:16]),
				Addr:       binary.LittleEndian.Uint64(rec[16:24]),
				Target:     binary.LittleEndian.Uint64(rec[24:32]),
				Taken:      flags&flagTaken != 0,
				Dep1:       binary.LittleEndian.Uint32(rec[32:36]),
				Dep2:       binary.LittleEndian.Uint32(rec[36:40]),
				InstrFirst: flags&flagInstrFirst != 0,
				FuseHead:   flags&flagFuseHead != 0,
				FuseTail:   flags&flagFuseTail != 0,
			})
		}
		if err != nil {
			if err == io.EOF && len(win) > whole {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("trace: read op %d of %d: %w", i, n, err)
		}
		br.Discard(whole)
	}

	sum := h.Sum(nil)
	var declared [checksumBytes]byte
	if _, err := io.ReadFull(br, declared[:]); err != nil {
		return nil, fmt.Errorf("trace: read checksum: %w", err)
	}
	if !bytes.Equal(sum, declared[:]) {
		return nil, fmt.Errorf("trace: checksum mismatch: file carries %x, content hashes to %x", declared, sum)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("trace: trailing garbage after checksum")
	}

	spec.Content = hex.EncodeToString(declared[:])
	if !keepOps {
		return &Buffer{spec: spec}, nil
	}
	return &Buffer{spec: spec, ops: ops}, nil
}

// WriteFile encodes the buffer to path atomically (atomicfile.Write:
// temp file + rename in the destination directory), as the run store
// writes its entries: readers never see a half-written trace.
func WriteFile(path string, b *Buffer) error {
	step, err := atomicfile.Write(path, ".mtrc-*", b.Encode)
	if err != nil && step != atomicfile.Fill {
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	return err
}

// ReadFile decodes the trace file at path. The returned buffer's spec
// has Content set to the verified checksum and SourceFile set to path.
func ReadFile(path string) (*Buffer, error) {
	return readFileInto(path, nil)
}

func readFileInto(path string, ops []MicroOp) (*Buffer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	b, err := decode(f, ops, true)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	b.spec.SourceFile = path
	return b, nil
}

// ReadFileSpec reads and fully verifies the trace file at path but
// materializes nothing: it returns just the embedded spec with Content
// (the verified checksum) and SourceFile filled in. This is what suite
// registration and listings use — identity without the memory.
func ReadFileSpec(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	b, err := decode(f, nil, false)
	if err != nil {
		return Spec{}, fmt.Errorf("trace: %s: %w", path, err)
	}
	spec := b.spec
	spec.SourceFile = path
	return spec, nil
}

// MaterializeSpec is the file-aware Materialize: specs from trace files
// (SourceFile set) are decoded from disk and verified against the
// Content hash they were registered under, all others are generated.
// Unlike Materialize it reports invalid specs and file problems as
// errors instead of panicking.
func MaterializeSpec(spec Spec) (*Buffer, error) {
	return MaterializeSpecInto(spec, nil)
}

// MaterializeSpecInto is MaterializeSpec recycling a released backing
// store, with the same ownership rules as MaterializeInto.
func MaterializeSpecInto(spec Spec, ops []MicroOp) (*Buffer, error) {
	if spec.SourceFile == "" {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		return MaterializeInto(spec, ops), nil
	}
	b, err := readFileInto(spec.SourceFile, ops)
	if err != nil {
		return nil, err
	}
	if spec.Content != "" && b.spec.Content != spec.Content {
		return nil, fmt.Errorf("trace: %s: content hash %.12s… does not match registered %.12s… (file rewritten since import?)",
			spec.SourceFile, b.spec.Content, spec.Content)
	}
	return b, nil
}
