package snapshot

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"fbdsim/internal/config"
)

// buildFile assembles a small but representative snapshot: two sections
// exercising every primitive type.
func buildFile(t *testing.T, fingerprint string) []byte {
	t.Helper()
	w := NewWriter(fingerprint)
	a := w.Section("alpha")
	a.U64(42)
	a.I64(-7)
	a.Int(13)
	a.Bool(true)
	a.Bool(false)
	a.F64(3.5)
	a.Bytes([]byte{1, 2, 3})
	a.String("hello")
	a.I64s([]int64{5, -5, 0})
	b := w.Section("beta")
	b.I64(99)
	if err := w.Err(); err != nil {
		t.Fatalf("writer error: %v", err)
	}
	return w.Finish()
}

func TestRoundTrip(t *testing.T) {
	data := buildFile(t, "fp")
	r, err := Open(data, "fp")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	a, err := r.Section("alpha")
	if err != nil {
		t.Fatalf("Section alpha: %v", err)
	}
	if got := a.U64(); got != 42 {
		t.Errorf("U64 = %d", got)
	}
	if got := a.I64(); got != -7 {
		t.Errorf("I64 = %d", got)
	}
	if got := a.Int(); got != 13 {
		t.Errorf("Int = %d", got)
	}
	if !a.Bool() || a.Bool() {
		t.Errorf("Bool pair wrong")
	}
	if got := a.F64(); got != 3.5 {
		t.Errorf("F64 = %v", got)
	}
	if got := a.Bytes(); len(got) != 3 || got[0] != 1 {
		t.Errorf("Bytes = %v", got)
	}
	if got := a.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := a.I64s(); len(got) != 3 || got[1] != -5 {
		t.Errorf("I64s = %v", got)
	}
	if err := a.Done(); err != nil {
		t.Errorf("alpha Done: %v", err)
	}
	bsec, err := r.Section("beta")
	if err != nil {
		t.Fatalf("Section beta: %v", err)
	}
	if got := bsec.I64(); got != 99 {
		t.Errorf("beta I64 = %d", got)
	}
	if err := bsec.Done(); err != nil {
		t.Errorf("beta Done: %v", err)
	}
	if err := r.Strict(); err != nil {
		t.Errorf("Strict: %v", err)
	}
}

// typedError reports whether err wraps one of the package's sentinel errors
// — the fail-closed contract: every refusal is classifiable.
func typedError(err error) bool {
	for _, sentinel := range []error{ErrBadMagic, ErrVersion, ErrFingerprint, ErrCorrupt, ErrUnknownSection} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

// TestOpenTruncated: every proper prefix of a valid file must be refused
// with a typed error — no panic, no Reader.
func TestOpenTruncated(t *testing.T) {
	data := buildFile(t, "fp")
	for n := 0; n < len(data); n++ {
		r, err := Open(data[:n], "fp")
		if err == nil {
			t.Fatalf("Open accepted a %d/%d-byte prefix", n, len(data))
		}
		if r != nil {
			t.Fatalf("Open returned a Reader alongside error %v", err)
		}
		if !typedError(err) {
			t.Fatalf("prefix %d: untyped error %v", n, err)
		}
	}
}

// TestOpenBitFlips: flipping any single byte must be refused with a typed
// error (magic damage → ErrBadMagic, version damage → ErrVersion, anything
// else → the CRC catches it as ErrCorrupt).
func TestOpenBitFlips(t *testing.T) {
	data := buildFile(t, "fp")
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		_, err := Open(mut, "fp")
		if err == nil {
			t.Fatalf("Open accepted a file with byte %d flipped", i)
		}
		if !typedError(err) {
			t.Fatalf("byte %d flipped: untyped error %v", i, err)
		}
		switch {
		case i < len(magic):
			if !errors.Is(err, ErrBadMagic) {
				t.Fatalf("magic byte %d flipped: got %v, want ErrBadMagic", i, err)
			}
		case i < len(magic)+4:
			if !errors.Is(err, ErrVersion) {
				t.Fatalf("version byte %d flipped: got %v, want ErrVersion (version outranks CRC)", i, err)
			}
		default:
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFingerprint) {
				t.Fatalf("byte %d flipped: got %v, want ErrCorrupt", i, err)
			}
		}
	}
}

// TestOpenFlippedCRC: damaging only the trailing checksum is ErrCorrupt.
func TestOpenFlippedCRC(t *testing.T) {
	data := buildFile(t, "fp")
	data[len(data)-1] ^= 0xff
	if _, err := Open(data, "fp"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped CRC byte: got %v, want ErrCorrupt", err)
	}
}

// TestOpenFutureVersion: a file stamped with a newer format version is
// refused with ErrVersion even though its CRC is valid.
func TestOpenFutureVersion(t *testing.T) {
	data := buildFile(t, "fp")
	body := append([]byte(nil), data[:len(data)-4]...)
	binary.LittleEndian.PutUint32(body[len(magic):], Version+1)
	data = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	if _, err := Open(data, "fp"); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: got %v, want ErrVersion", err)
	}
}

func TestOpenFingerprintMismatch(t *testing.T) {
	data := buildFile(t, "fp-a")
	if _, err := Open(data, "fp-b"); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("wrong fingerprint: got %v, want ErrFingerprint", err)
	}
}

func TestOpenNotASnapshot(t *testing.T) {
	for _, junk := range [][]byte{nil, []byte("x"), []byte("{\"json\":true}"), []byte("FBDSNAPX________________")} {
		if _, err := Open(junk, "fp"); !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("junk %q: got %v, want ErrBadMagic/ErrCorrupt", junk, err)
		}
	}
}

// TestSectionUnknownAndStrict: asking for an absent section and leaving a
// present one unconsumed are both ErrUnknownSection — the former is a
// missing requirement, the latter a silent-partial-restore guard.
func TestSectionUnknownAndStrict(t *testing.T) {
	data := buildFile(t, "fp")
	r, err := Open(data, "fp")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := r.Section("gamma"); !errors.Is(err, ErrUnknownSection) {
		t.Fatalf("missing section: got %v, want ErrUnknownSection", err)
	}
	if _, err := r.Section("alpha"); err != nil {
		t.Fatalf("Section alpha: %v", err)
	}
	if err := r.Strict(); !errors.Is(err, ErrUnknownSection) {
		t.Fatalf("unconsumed section: got %v, want ErrUnknownSection", err)
	}
}

// TestDecoderStickyError: the first failure poisons every later read, and
// Done reports it.
func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3})
	if got := d.U64(); got != 0 {
		t.Errorf("underflowing U64 = %d, want 0", got)
	}
	if d.Err() == nil || !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("underflow not flagged: %v", d.Err())
	}
	if got := d.I64(); got != 0 {
		t.Errorf("read after poison = %d, want 0", got)
	}
	if err := d.Done(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Done after poison: %v", err)
	}
}

func TestDecoderTrailingBytes(t *testing.T) {
	var e Encoder
	e.I64(1)
	e.I64(2)
	d := NewDecoder(e.buf)
	d.I64()
	if err := d.Done(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: got %v, want ErrCorrupt", err)
	}
}

// TestDecoderCountGuard: a corrupt count larger than the remaining payload
// could hold is refused before any allocation.
func TestDecoderCountGuard(t *testing.T) {
	var e Encoder
	e.U64(1 << 40) // claimed element count
	d := NewDecoder(e.buf)
	if n := d.Count(16); n != 0 {
		t.Fatalf("Count accepted alloc-bomb length %d", n)
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("Count guard: %v", d.Err())
	}

	var e2 Encoder
	e2.U64(1 << 40)
	d2 := NewDecoder(e2.buf)
	if vs := d2.I64s(); vs != nil {
		t.Fatalf("I64s accepted alloc-bomb length")
	}
	if !errors.Is(d2.Err(), ErrCorrupt) {
		t.Fatalf("I64s guard: %v", d2.Err())
	}
}

func TestDecoderInvalidBool(t *testing.T) {
	d := NewDecoder([]byte{2})
	d.Bool()
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("bool byte 2: %v", d.Err())
	}
}

// TestEncoderFailRefusesFile: a component flagging unserializable state
// makes the writer refuse the whole snapshot.
func TestEncoderFailRefusesFile(t *testing.T) {
	w := NewWriter("fp")
	w.Section("ok").I64(1)
	w.Section("bad").Fail("closure waiter on line %#x", 0x40)
	if err := w.Err(); err == nil {
		t.Fatalf("Writer.Err nil after section Fail")
	} else if err.Error() != "snapshot: closure waiter on line 0x40" {
		t.Fatalf("unexpected Fail message %q", err)
	}
}

// TestFingerprintSensitivity: the identity hash — also the result-cache key
// of every cycle-accurate job, sweep point and lease point — moves with any
// config or workload change and is stable across calls.
func TestFingerprintSensitivity(t *testing.T) {
	cfg := config.Default()
	bench := []string{"swim", "applu"}
	a := Fingerprint(cfg, bench)
	if a != Fingerprint(cfg, bench) {
		t.Fatalf("fingerprint not deterministic")
	}
	if len(a) != 64 {
		t.Errorf("fingerprint length = %d, want 64 hex chars", len(a))
	}
	seed, budget := cfg, cfg
	seed.Seed++
	budget.MaxInsts = 123
	for _, v := range []struct {
		name  string
		other string
	}{
		{"seed", Fingerprint(seed, bench)},
		{"budget", Fingerprint(budget, bench)},
		{"config knob", Fingerprint(config.WithAMBPrefetch(cfg), bench)},
		{"benchmark order", Fingerprint(cfg, []string{"applu", "swim"})},
		{"benchmark subset", Fingerprint(cfg, []string{"swim"})},
		{"benchmark name", Fingerprint(cfg, []string{"mgrid", "applu"})},
	} {
		if v.other == a {
			t.Errorf("%s change did not move the fingerprint", v.name)
		}
	}
}

// FuzzOpen exercises the container parser with arbitrary bytes: it must
// never panic and every refusal must carry a typed sentinel.
func FuzzOpen(f *testing.F) {
	valid := NewWriter("fp")
	valid.Section("s").I64s([]int64{1, 2, 3})
	f.Add(valid.Finish())
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Open(data, "fp")
		if err != nil {
			if r != nil {
				t.Fatalf("Reader returned alongside error %v", err)
			}
			if !typedError(err) {
				t.Fatalf("untyped refusal: %v", err)
			}
			return
		}
		// A structurally valid file: decoding any section must be panic-free
		// and Done must classify failures as corruption.
		for _, tag := range []string{"s", "other"} {
			d, serr := r.Section(tag)
			if serr != nil {
				continue
			}
			d.I64s()
			d.Bool()
			if derr := d.Done(); derr != nil && !errors.Is(derr, ErrCorrupt) {
				t.Fatalf("section decode error untyped: %v", derr)
			}
		}
	})
}
