package fbdchan

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"strings"
	"testing"

	"fbdsim/internal/snapshot"
)

// restoreEdited snapshots src, lets edit rewrite its in-flight block (the
// count, then line-ordered line/landing pairs), re-seals the container so
// only the channel decoder can notice, and restores the result into a
// fresh channel built like src.
func restoreEdited(t *testing.T, src *Channel, edit func(block []byte)) (*Channel, error) {
	t.Helper()
	w := snapshot.NewWriter("ch")
	src.Snapshot(w.Section("ch"))
	data := w.Finish()
	pending := inFlight(src)
	block := binary.LittleEndian.AppendUint64(nil, uint64(len(pending)))
	for _, p := range pending {
		block = binary.LittleEndian.AppendUint64(block, uint64(p.Line))
		block = binary.LittleEndian.AppendUint64(block, uint64(p.Landing))
	}
	at := bytes.Index(data, block)
	if at < 0 {
		t.Fatal("in-flight block not found in the snapshot")
	}
	edit(data[at : at+len(block)])
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(body):], crc32.ChecksumIEEE(body))
	r, err := snapshot.Open(data, "ch")
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Section("ch")
	if err != nil {
		t.Fatal(err)
	}
	dst, _ := apChannel(t, nil)
	dst.Restore(d)
	return dst, d.Done()
}

// TestRestoreInFlight: landing times survive a snapshot round trip, and a
// record Snapshot cannot write — out of line order, landing at or before
// time zero, or naming a line its DIMM's AMB cache does not hold — fails
// the restore.
func TestRestoreInFlight(t *testing.T) {
	src, _ := apChannel(t, nil)
	src.ScheduleRead(rd(src, 0), ready12) // lines 1..3 in flight
	want := inFlight(src)
	if len(want) != 3 {
		t.Fatalf("%d prefetches in flight, want 3", len(want))
	}
	got, err := restoreEdited(t, src, func([]byte) {})
	if err != nil {
		t.Fatalf("clean restore: %v", err)
	}
	if !slices.Equal(inFlight(got), want) {
		t.Errorf("restored in flight %v, want %v", inFlight(got), want)
	}

	put := func(b []byte, off int, v int64) { binary.LittleEndian.PutUint64(b[off:], uint64(v)) }
	line := func(i int) int { return 8 + 16*i }
	for _, tc := range []struct {
		name, msg string
		edit      func(b []byte)
	}{
		{"out of order", "follows", func(b []byte) { put(b, line(1), want[0].Line) }},
		{"lands at zero", "lands at 0", func(b []byte) { put(b, line(2)+8, 0) }},
		{"not resident", "not resident", func(b []byte) { put(b, line(2), 1<<20) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := restoreEdited(t, src, tc.edit)
			if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), tc.msg) {
				t.Errorf("restore error %v, want ErrCorrupt containing %q", err, tc.msg)
			}
		})
	}
}
