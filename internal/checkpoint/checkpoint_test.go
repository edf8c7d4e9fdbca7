package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testFingerprint() [32]byte {
	return sha256.Sum256([]byte("app=CG label=Base scale=small seed=1"))
}

func testPayload() []byte {
	w := NewWriter()
	w.Tag("engine")
	w.U64(123456)
	w.I64(-7)
	w.Bools([]bool{true, false, true})
	w.U64s([]uint64{1, 2, 3, 4})
	w.U8s([]byte{9, 8, 7})
	return w.Bytes()
}

func TestRoundTrip(t *testing.T) {
	fp := testFingerprint()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, fp, testPayload()); err != nil {
		t.Fatalf("Save: %v", err)
	}
	payload, err := Load(path, fp)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	r := NewReader(payload)
	r.Tag("engine")
	if got := r.U64(); got != 123456 {
		t.Errorf("U64 = %d, want 123456", got)
	}
	if got := r.I64(); got != -7 {
		t.Errorf("I64 = %d, want -7", got)
	}
	bs := make([]bool, 3)
	r.BoolsInto(bs)
	if !bs[0] || bs[1] || !bs[2] {
		t.Errorf("BoolsInto = %v", bs)
	}
	us := make([]uint64, 4)
	r.U64sInto(us)
	if us[3] != 4 {
		t.Errorf("U64sInto = %v", us)
	}
	u8 := make([]uint8, 3)
	r.U8sInto(u8)
	if u8[0] != 9 {
		t.Errorf("U8sInto = %v", u8)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Reader error after full walk: %v", err)
	}
}

// TestTruncatedRejected chops a valid checkpoint at every length
// shorter than the file and requires a descriptive typed error —
// never a panic or a silent success.
func TestTruncatedRejected(t *testing.T) {
	fp := testFingerprint()
	data := Encode(fp, testPayload())
	for cut := 0; cut < len(data); cut += 7 {
		_, err := Decode(data[:cut], fp)
		if err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
		// Short header is always ErrTruncated; a cut inside the
		// payload or digest can only be truncation too, since the
		// length field survives.
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("truncation at %d bytes: got %v, want ErrTruncated", cut, err)
		}
	}
}

// TestBitFlipRejected flips one bit in every byte position of a valid
// checkpoint; all flips must be rejected (ErrCorrupt for payload and
// digest damage; length-field damage may legitimately read as
// truncation instead).
func TestBitFlipRejected(t *testing.T) {
	fp := testFingerprint()
	data := Encode(fp, testPayload())
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		_, err := Decode(mut, fp)
		if err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("bit flip at byte %d: got %v", i, err)
		}
	}
}

// TestWrongVersionRejected crafts an otherwise-valid checkpoint
// carrying a future format version — correct digest, correct
// fingerprint — and requires ErrVersion specifically. (Merely
// flipping the version byte of a valid file fails the digest first
// and reads as corruption, which is also correct but tests less.)
func TestWrongVersionRejected(t *testing.T) {
	fp := testFingerprint()
	data := Encode(fp, testPayload())
	fut := append([]byte(nil), data[:len(data)-sha256.Size]...)
	binary.LittleEndian.PutUint32(fut[8:12], Version+1)
	sum := sha256.Sum256(fut)
	fut = append(fut, sum[:]...)
	_, err := Decode(fut, fp)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: got %v, want ErrVersion", err)
	}
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version error not descriptive: %v", err)
	}
}

func TestWrongFingerprintRejected(t *testing.T) {
	data := Encode(testFingerprint(), testPayload())
	other := sha256.Sum256([]byte("app=CG label=Base scale=medium seed=2"))
	_, err := Decode(data, other)
	if !errors.Is(err, ErrFingerprint) {
		t.Fatalf("wrong fingerprint: got %v, want ErrFingerprint", err)
	}
}

func TestNotACheckpointRejected(t *testing.T) {
	junk := make([]byte, 256)
	for i := range junk {
		junk[i] = byte(i)
	}
	_, err := Decode(junk, testFingerprint())
	if err == nil {
		t.Fatal("arbitrary bytes accepted as checkpoint")
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	fp := testFingerprint()
	data := append(Encode(fp, testPayload()), 0xAA, 0xBB)
	_, err := Decode(data, fp)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing garbage: got %v, want ErrCorrupt", err)
	}
}

// TestSaveAtomic checks that Save replaces an existing checkpoint
// atomically and leaves no temp litter behind.
func TestSaveAtomic(t *testing.T) {
	fp := testFingerprint()
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := Save(path, fp, []byte("first")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := Save(path, fp, []byte("second")); err != nil {
		t.Fatalf("Save overwrite: %v", err)
	}
	payload, err := Load(path, fp)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if string(payload) != "second" {
		t.Fatalf("payload = %q, want %q", payload, "second")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("temp litter after Save: %v", names)
	}
}

// TestSectionTagSkew verifies the guard-rail tags catch a
// writer/reader field-walk mismatch with a descriptive error.
func TestSectionTagSkew(t *testing.T) {
	w := NewWriter()
	w.Tag("cache")
	w.U64(1)
	r := NewReader(w.Bytes())
	r.Tag("bus")
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "section") {
		t.Fatalf("tag skew not caught: %v", err)
	}
}

// TestReaderSticky verifies reads past the end stick at the first
// error and keep returning zero values instead of panicking.
func TestReaderSticky(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.U64() // short
	if r.Err() == nil {
		t.Fatal("short read not flagged")
	}
	first := r.Err()
	_ = r.U64()
	_ = r.Bool()
	if r.Err() != first {
		t.Fatalf("error not sticky: %v then %v", first, r.Err())
	}
}

// TestReaderCount verifies a count is accepted only when its entries
// fit in the bytes left: a negative or oversized count fails with
// ErrCorrupt and reads as 0.
func TestReaderCount(t *testing.T) {
	for _, tc := range []struct {
		name  string
		count int
		want  int
		bad   bool
	}{
		{"fits", 2, 2, false},
		{"negative", -1, 0, true},
		{"past the payload", 3, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWriter()
			w.Int(tc.count)
			w.U64(7)
			w.U64(8)
			r := NewReader(w.Bytes())
			if got := r.Count(8); got != tc.want {
				t.Errorf("Count = %d, want %d", got, tc.want)
			}
			if err := r.Err(); tc.bad != errors.Is(err, ErrCorrupt) {
				t.Errorf("error %v, want ErrCorrupt: %v", err, tc.bad)
			}
		})
	}
}
