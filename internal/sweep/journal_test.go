package sweep

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// runJournaled executes spec against fakeRun with its journal at path and
// returns the collected points.
func runJournaled(t *testing.T, spec Spec, path string) []Point {
	t.Helper()
	spec.Journal = path
	eng, err := New(spec, Options{Run: fakeRun})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	pts, err := collect(context.Background(), eng)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return pts
}

// A writer that dies mid-record after earlier fsynced appends leaves a
// torn tail behind a valid prefix. Reopening must replay the prefix,
// truncate the tear, and a resumed sweep must produce results identical
// to an unbroken run.
func TestJournalTornTailAfterFsync(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.ndjson")
	spec := testSpec(2, 2) // 4 points

	ref := runJournaled(t, spec, filepath.Join(dir, "ref.ndjson"))
	full := runJournaled(t, spec, path)
	if !reflect.DeepEqual(ref, full) {
		t.Fatal("journaled run differs from reference before any damage")
	}

	// Simulate the crash: the (closed, i.e. lock-free) journal gains a
	// partial record — valid JSON prefix, no terminating newline — as if
	// the writer died inside writeLine after its previous fsync landed.
	damaged, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open for damage: %v", err)
	}
	if _, err := damaged.WriteString(`{"index":99,"config":"cfg-`); err != nil {
		t.Fatalf("write torn tail: %v", err)
	}
	damaged.Close()
	tornSize := fileSize(t, path)

	// Reopen: every fsynced point replays, the tear is truncated away.
	spec.Journal = path
	j, pts, err := OpenJournal(path, spec.Name, spec.Fingerprint())
	if err != nil {
		t.Fatalf("OpenJournal on torn journal: %v", err)
	}
	if len(pts) != len(ref) {
		t.Fatalf("replayed %d points, want %d", len(pts), len(ref))
	}
	j.Close()
	if got := fileSize(t, path); got >= tornSize {
		t.Fatalf("torn tail not truncated: size %d, want < %d", got, tornSize)
	}

	// And the resumed sweep is bit-identical to the reference.
	resumed := runJournaled(t, spec, path)
	if !reflect.DeepEqual(ref, resumed) {
		t.Fatal("resumed sweep differs from unbroken reference")
	}
}

// A complete corrupt line (newline-terminated garbage) buries any valid
// records behind it: replay keeps the prefix only and truncates from the
// corruption on, never resurrecting the suffix.
func TestJournalCorruptRecordDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.ndjson")
	spec := testSpec(2, 2)
	ref := runJournaled(t, spec, path)

	// Split the file after the header + first two point lines, splice in
	// a corrupt record, and re-append the remaining valid lines.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	lines := splitLines(raw)
	if len(lines) != len(ref)+1 { // header + one line per point
		t.Fatalf("journal has %d lines, want %d", len(lines), len(ref)+1)
	}
	var rebuilt []byte
	for _, l := range lines[:3] {
		rebuilt = append(rebuilt, l...)
	}
	rebuilt = append(rebuilt, []byte("{\"index\": not-json}\n")...)
	for _, l := range lines[3:] {
		rebuilt = append(rebuilt, l...)
	}
	if err := os.WriteFile(path, rebuilt, 0o644); err != nil {
		t.Fatalf("rewrite journal: %v", err)
	}

	j, pts, err := OpenJournal(path, spec.Name, spec.Fingerprint())
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	j.Close()
	if len(pts) != 2 {
		t.Fatalf("replayed %d points, want only the 2 before the corruption", len(pts))
	}
	// The corrupt record and the valid-looking suffix behind it are gone.
	var wantSize int64
	for _, l := range lines[:3] {
		wantSize += int64(len(l))
	}
	if got := fileSize(t, path); got != wantSize {
		t.Fatalf("journal size %d after truncation, want %d", got, wantSize)
	}

	resumed := runJournaled(t, spec, path)
	if !reflect.DeepEqual(ref, resumed) {
		t.Fatal("resumed sweep differs from reference after corruption recovery")
	}
}

// Two concurrent openers of one journal would interleave appends and
// corrupt the replay stream; the second opener must fail closed with the
// typed ErrLocked sentinel while the first holds the file.
func TestJournalSecondOpenerFailsClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	spec := testSpec(1, 1)

	j1, _, err := OpenJournal(path, spec.Name, spec.Fingerprint())
	if err != nil {
		t.Fatalf("first open: %v", err)
	}
	defer j1.Close()

	j2, _, err := OpenJournal(path, spec.Name, spec.Fingerprint())
	if err == nil {
		j2.Close()
		t.Fatal("second opener succeeded; want ErrLocked")
	}
	if !errors.Is(err, ErrLocked) {
		t.Fatalf("second open error = %v, want errors.Is(_, ErrLocked)", err)
	}

	// The refused opener must not have touched the file: the header the
	// first opener wrote is intact and usable after release.
	sizeBefore := fileSize(t, path)
	j1.Close()
	j3, pts, err := OpenJournal(path, spec.Name, spec.Fingerprint())
	if err != nil {
		t.Fatalf("reopen after release: %v", err)
	}
	defer j3.Close()
	if len(pts) != 0 {
		t.Fatalf("unexpected replayed points: %d", len(pts))
	}
	if got := fileSize(t, path); got != sizeBefore {
		t.Fatalf("journal size changed %d -> %d across a refused open", sizeBefore, got)
	}
}

// The lock dies with its holder: a journal left behind by a finished (or
// killed) process opens cleanly.
func TestJournalLockReleasedOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	spec := testSpec(1, 1)
	_ = runJournaled(t, spec, path) // opens, appends, closes

	j, pts, err := OpenJournal(path, spec.Name, spec.Fingerprint())
	if err != nil {
		t.Fatalf("reopen finished journal: %v", err)
	}
	defer j.Close()
	if len(pts) != 1 {
		t.Fatalf("replayed %d points, want 1", len(pts))
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat %s: %v", path, err)
	}
	return fi.Size()
}

// splitLines splits raw into newline-terminated chunks (the final chunk
// keeps its newline; raw is assumed newline-terminated).
func splitLines(raw []byte) [][]byte {
	var lines [][]byte
	start := 0
	for i, b := range raw {
		if b == '\n' {
			lines = append(lines, raw[start:i+1])
			start = i + 1
		}
	}
	return lines
}
