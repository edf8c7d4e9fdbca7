// Package checkpoint defines the on-disk format and binary codec for
// crash-safe simulator snapshots.
//
// A checkpoint file is a single self-validating blob:
//
//	offset  size  field
//	0       8     magic "ULMTCKPT"
//	8       4     format version (little-endian uint32)
//	12      32    configuration fingerprint (sha256 of a canonical
//	              run descriptor — app, config label, scale, seed,
//	              fastpath, kernel, fault tag)
//	44      8     payload length N (little-endian uint64)
//	52      N     payload (sectioned binary state, see Writer/Reader)
//	52+N    32    sha256 over bytes [0, 52+N)
//
// The trailing digest covers everything including the header, so a
// flipped bit anywhere — header, payload, or length field — fails
// verification. Load validates in a fixed order chosen so each typed
// error means exactly one thing: a short file is ErrTruncated (the
// write was cut off), a digest mismatch is ErrCorrupt (bytes changed
// after a complete write), a good digest with an unknown version is
// ErrVersion (written by a different build), and a good digest with a
// different fingerprint is ErrFingerprint (written for a different
// run). Save writes through a temp file and renames it into place, so
// a crash mid-write leaves either the old checkpoint or none — never
// a half-written file that passes existence checks.
//
// The payload codec is deliberately dumb: fixed-width little-endian
// integers written in a fixed order, with short section tags
// interleaved as guard rails. There is no reflection and no schema;
// the restoring build must walk the same fields in the same order,
// which the section tags verify cheaply. Both Writer and Reader carry
// a sticky error so state-holder snapshot code can stay branch-free.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Version is the current checkpoint format version. Bump it whenever
// the payload layout changes; Load rejects any other value.
// Version 2: cpu snapshots carry the finished flag, bus snapshots the
// per-class transfer counts, and multi-core payloads exist.
// Version 3: shard-set snapshots carry the per-core attribution
// counters and the row-owner map.
const Version = 3

var magic = [8]byte{'U', 'L', 'M', 'T', 'C', 'K', 'P', 'T'}

// headerSize is magic + version + fingerprint + payload length.
const headerSize = 8 + 4 + 32 + 8

// Typed errors for the failure modes a checkpoint consumer must
// distinguish; wrap-aware, test with errors.Is.
var (
	// ErrTruncated marks a file shorter than its header declares —
	// an interrupted write (pre-rename crash) or a chopped copy.
	ErrTruncated = errors.New("checkpoint truncated")
	// ErrCorrupt marks a file whose sha256 footer does not match its
	// bytes, or whose header bytes are not a checkpoint at all.
	ErrCorrupt = errors.New("checkpoint integrity check failed")
	// ErrVersion marks an intact checkpoint written in a different
	// format version.
	ErrVersion = errors.New("checkpoint format version mismatch")
	// ErrFingerprint marks an intact checkpoint written for a
	// different run configuration.
	ErrFingerprint = errors.New("checkpoint configuration fingerprint mismatch")
)

// Snapshotter is implemented by every packed state holder that can
// serialize itself into a checkpoint payload and restore from one. A
// component's Snapshot and Restore must walk the identical field
// sequence; Restore reports nothing itself — decode failures land in
// the Reader's sticky error, checked once after the full walk.
type Snapshotter interface {
	Snapshot(w *Writer)
	Restore(r *Reader)
}

// Encode frames a payload into checkpoint wire format: header,
// payload, sha256 footer.
func Encode(fingerprint [32]byte, payload []byte) []byte {
	buf := make([]byte, 0, headerSize+len(payload)+sha256.Size)
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = append(buf, fingerprint[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// Save atomically writes a checkpoint file: the framed blob goes to a
// temp file in the destination directory, is synced, and renamed over
// path. Readers never observe a partial file.
func Save(path string, fingerprint [32]byte, payload []byte) error {
	data := Encode(fingerprint, payload)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint save: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, path)
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint save: %w", err)
	}
	return nil
}

// Decode validates a framed checkpoint blob against the expected
// fingerprint and returns its payload. Validation order: length →
// digest → magic → version → fingerprint, so each typed error keeps
// its single meaning (see the package comment).
func Decode(data []byte, fingerprint [32]byte) ([]byte, error) {
	if len(data) < headerSize+sha256.Size {
		return nil, fmt.Errorf("%w: %d bytes, need at least %d",
			ErrTruncated, len(data), headerSize+sha256.Size)
	}
	payloadLen := binary.LittleEndian.Uint64(data[44:52])
	want := uint64(headerSize) + payloadLen + sha256.Size
	if uint64(len(data)) < want {
		return nil, fmt.Errorf("%w: %d bytes, header declares %d",
			ErrTruncated, len(data), want)
	}
	if uint64(len(data)) > want {
		return nil, fmt.Errorf("%w: %d trailing bytes after declared payload",
			ErrCorrupt, uint64(len(data))-want)
	}
	body := data[:len(data)-sha256.Size]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], data[len(data)-sha256.Size:]) {
		return nil, fmt.Errorf("%w: sha256 mismatch", ErrCorrupt)
	}
	if !bytes.Equal(data[:8], magic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != Version {
		return nil, fmt.Errorf("%w: file version %d, this build reads %d",
			ErrVersion, v, Version)
	}
	if !bytes.Equal(data[12:44], fingerprint[:]) {
		return nil, fmt.Errorf("%w: file written for a different run configuration",
			ErrFingerprint)
	}
	return data[headerSize : headerSize+int(payloadLen)], nil
}

// Load reads and validates the checkpoint at path, returning its
// payload.
func Load(path string, fingerprint [32]byte) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint load: %w", err)
	}
	payload, err := Decode(data, fingerprint)
	if err != nil {
		return nil, fmt.Errorf("checkpoint load %s: %w", filepath.Base(path), err)
	}
	return payload, nil
}

// Writer serializes checkpoint payload fields in order. All integers
// are fixed-width little-endian; there is no compression — integrity
// and simplicity beat size here.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty payload writer.
func NewWriter() *Writer { return &Writer{buf: make([]byte, 0, 1<<16)} }

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// Tag writes a short section marker the Reader verifies, catching
// writer/reader field-walk skew close to where it happens instead of
// as garbage values far downstream.
func (w *Writer) Tag(name string) {
	w.buf = append(w.buf, uint8(len(name)))
	w.buf = append(w.buf, name...)
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U64s appends a length-prefixed []uint64.
func (w *Writer) U64s(vs []uint64) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.U64(v)
	}
}

// U8s appends a length-prefixed []uint8.
func (w *Writer) U8s(vs []uint8) {
	w.U64(uint64(len(vs)))
	w.buf = append(w.buf, vs...)
}

// Bools appends a length-prefixed []bool.
func (w *Writer) Bools(vs []bool) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.Bool(v)
	}
}

// I64s appends a length-prefixed []int64.
func (w *Writer) I64s(vs []int64) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.I64(v)
	}
}

// Reader decodes a payload written by Writer, in the same field
// order. The first failure (short read, tag mismatch) sticks: all
// later reads return zero values and Err reports the original cause,
// so restore code can walk the full field sequence unconditionally
// and check once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a payload for decoding.
func NewReader(payload []byte) *Reader { return &Reader{buf: payload} }

// Err returns the sticky decode error, if any.
func (r *Reader) Err() error { return r.err }

// Failf lets restore code flag a semantic mismatch (geometry skew,
// impossible value) through the same sticky-error channel as decode
// failures. The recorded error wraps ErrCorrupt.
func (r *Reader) Failf(format string, args ...any) {
	r.fail(fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...)))
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail(fmt.Errorf("%w: payload ends at %d, need %d more bytes",
			ErrTruncated, r.off, n))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Tag consumes a section marker and verifies it matches name.
func (r *Reader) Tag(name string) {
	n := int(r.U8())
	b := r.take(n)
	if r.err != nil {
		return
	}
	if string(b) != name {
		r.fail(fmt.Errorf("%w: expected section %q, found %q",
			ErrCorrupt, name, string(b)))
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool reads a bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// sliceLen validates a length prefix against an expected destination
// size; checkpointed slices restore into identically-configured
// structures, so a length change means config or format skew.
func (r *Reader) sliceLen(want int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if want >= 0 && n != uint64(want) {
		r.fail(fmt.Errorf("%w: slice length %d, destination holds %d",
			ErrCorrupt, n, want))
		return 0
	}
	return int(n)
}

// U64sInto fills dst from a length-prefixed []uint64; the stored
// length must equal len(dst).
func (r *Reader) U64sInto(dst []uint64) {
	n := r.sliceLen(len(dst))
	for i := 0; i < n; i++ {
		dst[i] = r.U64()
	}
}

// U8sInto fills dst from a length-prefixed []uint8.
func (r *Reader) U8sInto(dst []uint8) {
	n := r.sliceLen(len(dst))
	b := r.take(n)
	if b != nil {
		copy(dst, b)
	}
}

// BoolsInto fills dst from a length-prefixed []bool.
func (r *Reader) BoolsInto(dst []bool) {
	n := r.sliceLen(len(dst))
	for i := 0; i < n; i++ {
		dst[i] = r.Bool()
	}
}

// I64sInto fills dst from a length-prefixed []int64.
func (r *Reader) I64sInto(dst []int64) {
	n := r.sliceLen(len(dst))
	for i := 0; i < n; i++ {
		dst[i] = r.I64()
	}
}

// I64Slice reads a length-prefixed []int64 of caller-unknown length.
func (r *Reader) I64Slice() []int64 {
	n := r.sliceLen(-1)
	if r.err != nil || n == 0 {
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = r.I64()
	}
	return vs
}
