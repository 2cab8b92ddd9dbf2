package system

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"fbdsim/internal/config"
	"fbdsim/internal/snapshot"
)

// checkpointAt runs cfg with a one-shot checkpoint at the first boundary at
// or after atCycle and returns the run's Results plus the captured bytes.
func checkpointAt(t *testing.T, cfg config.Config, benchmarks []string, atCycle int64, atWarm bool) (Results, []byte, int64) {
	t.Helper()
	var data []byte
	var cpCycle int64
	ctx := WithCheckpoint(context.Background(), CheckpointSpec{
		AtCycle: atCycle,
		AtWarm:  atWarm,
		OnCheckpoint: func(cp Checkpoint) error {
			data = append([]byte(nil), cp.Data...)
			cpCycle = cp.Cycle
			return nil
		},
	})
	res, err := RunWorkloadContext(ctx, cfg, benchmarks)
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if data == nil {
		t.Fatalf("no checkpoint captured (atCycle=%d atWarm=%v)", atCycle, atWarm)
	}
	return res, data, cpCycle
}

// restoreAndRun builds a fresh System, restores data into it and runs it to
// completion with the requested loop.
func restoreAndRun(t *testing.T, cfg config.Config, benchmarks []string, data []byte, reference bool) Results {
	t.Helper()
	s, err := New(cfg, benchmarks)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.RestoreSnapshot(data, ""); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	s.SetReferenceLoop(reference)
	res, err := s.Run()
	if err != nil {
		t.Fatalf("restored run (reference=%v): %v", reference, err)
	}
	return res
}

// TestCheckpointRestoreBitIdentical is the property test backing the
// snapshot subsystem: across interconnects and seeds, with fault injection
// and memtrace recording enabled, a run snapshotted at a random post-warmup
// boundary and resumed in a freshly built System must produce Results that
// DeepEqual the unbroken run's — every counter, histogram bucket, PRNG-driven
// fault, trace event and epoch row. The checkpointed (but uninterrupted) run
// itself must also be unperturbed, and the restored machine must replay
// identically under both simulation loops.
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	benchmarks := []string{"mcf", "art"}
	modes := []struct {
		name string
		cfg  func() config.Config
	}{
		{"ddr2", config.DDR2Baseline},
		{"fbd", config.Default},
		{"fbd-ap", func() config.Config { return config.WithAMBPrefetch(config.Default()) }},
	}
	for _, mode := range modes {
		for _, seed := range []int64{1, 7} {
			name := fmt.Sprintf("%s/seed%d", mode.name, seed)
			t.Run(name, func(t *testing.T) {
				cfg := mode.cfg()
				equivBudgets(&cfg)
				cfg.Seed = seed
				cfg.Fault = config.Fault{
					Enabled:          true,
					Seed:             seed + 100,
					SouthErrorRate:   0.002,
					NorthErrorRate:   0.002,
					AMBSoftErrorRate: 0.001,
					DegradedChannel:  0,
					DegradedDIMM:     1,
					DeadBank:         -1,
				}
				cfg.Trace.Enabled = true
				cfg.Trace.MaxEvents = 4096

				base, err := RunWorkload(cfg, benchmarks)
				if err != nil {
					t.Fatalf("baseline run: %v", err)
				}

				// Learn the warmup boundary, then checkpoint at a random
				// boundary shortly after it (the measured window is tens of
				// boundaries long at these budgets).
				warmRes, warmData, warmCycle := checkpointAt(t, cfg, benchmarks, 0, true)
				if !reflect.DeepEqual(base, warmRes) {
					t.Fatalf("taking a warm checkpoint perturbed the run")
				}
				rng := rand.New(rand.NewSource(seed * 7919))
				at := warmCycle + (1+rng.Int63n(8))*checkInterval
				midRes, midData, midCycle := checkpointAt(t, cfg, benchmarks, at, false)
				if !reflect.DeepEqual(base, midRes) {
					t.Fatalf("taking a mid-run checkpoint perturbed the run")
				}
				if midCycle < at || midCycle%checkInterval != 0 {
					t.Fatalf("checkpoint landed at %d, want boundary >= %d", midCycle, at)
				}

				for _, tc := range []struct {
					label string
					data  []byte
				}{
					{"warm", warmData},
					{"mid-measurement", midData},
				} {
					got := restoreAndRun(t, cfg, benchmarks, tc.data, false)
					if !reflect.DeepEqual(base, got) {
						t.Errorf("%s checkpoint: restored fast-loop run diverged\nbase:     %+v\nrestored: %+v", tc.label, base, got)
					}
					got = restoreAndRun(t, cfg, benchmarks, tc.data, true)
					if !reflect.DeepEqual(base, got) {
						t.Errorf("%s checkpoint: restored reference-loop run diverged\nbase:     %+v\nrestored: %+v", tc.label, base, got)
					}
				}
			})
		}
	}
}

// TestCheckpointTriggerPausesRun: a fired Trigger takes a checkpoint at the
// next boundary and ends the run with ErrPaused; resubmitting the checkpoint
// completes the run with the unbroken run's Results.
func TestCheckpointTriggerPausesRun(t *testing.T) {
	cfg := config.Default()
	equivBudgets(&cfg)
	benchmarks := []string{"swim"}

	base, err := RunWorkload(cfg, benchmarks)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	trig := &Trigger{}
	trig.Fire()
	var data []byte
	ctx := WithCheckpoint(context.Background(), CheckpointSpec{
		Trigger: trig,
		OnCheckpoint: func(cp Checkpoint) error {
			data = append([]byte(nil), cp.Data...)
			return nil
		},
	})
	_, err = RunWorkloadContext(ctx, cfg, benchmarks)
	if !errors.Is(err, ErrPaused) {
		t.Fatalf("paused run returned %v, want ErrPaused", err)
	}
	if data == nil {
		t.Fatalf("pause did not deliver a checkpoint")
	}

	got, err := RunWorkloadContext(WithRestore(context.Background(), RestoreSpec{Data: data}), cfg, benchmarks)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Fatalf("resumed run diverged from unbroken run\nbase:    %+v\nresumed: %+v", base, got)
	}
}

// TestRestoreRejectsWrongMachine: a checkpoint only restores into a machine
// with the same config+workload fingerprint, and a rejected restore leaves
// the target machine untouched and runnable.
func TestRestoreRejectsWrongMachine(t *testing.T) {
	cfg := config.Default()
	equivBudgets(&cfg)
	_, data, _ := checkpointAt(t, cfg, []string{"swim"}, 0, true)

	other := cfg
	other.Seed = cfg.Seed + 1
	s, err := New(other, []string{"swim"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.RestoreSnapshot(data, ""); !errors.Is(err, snapshot.ErrFingerprint) {
		t.Fatalf("restore into different machine returned %v, want ErrFingerprint", err)
	}
	want, err := RunWorkload(other, []string{"swim"})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	got, err := s.Run()
	if err != nil {
		t.Fatalf("run after rejected restore: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("rejected restore left the machine perturbed")
	}

	// An explicit fingerprint override (the sweep engine's group key) makes
	// the same bytes restorable anywhere the caller vouches for.
	groupKey := "shared-warmup-group"
	_, data2, _ := func() (Results, []byte, int64) {
		var d []byte
		ctx := WithCheckpoint(context.Background(), CheckpointSpec{
			AtWarm:      true,
			Fingerprint: groupKey,
			OnCheckpoint: func(cp Checkpoint) error {
				d = append([]byte(nil), cp.Data...)
				return nil
			},
		})
		r, err := RunWorkloadContext(ctx, cfg, []string{"swim"})
		if err != nil {
			t.Fatalf("group-key run: %v", err)
		}
		return r, d, 0
	}()
	s2, err := New(cfg, []string{"swim"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s2.RestoreSnapshot(data2, ""); !errors.Is(err, snapshot.ErrFingerprint) {
		t.Fatalf("group-key snapshot restored under machine identity: %v", err)
	}
	if err := s2.RestoreSnapshot(data2, groupKey); err != nil {
		t.Fatalf("group-key restore: %v", err)
	}
}

// lastSection walks a snapshot body's section table and returns the offset
// of the final section's length field; its payload follows that field.
func lastSection(t *testing.T, body []byte) (lenOff int) {
	t.Helper()
	off := 8 + 4 // magic + version
	fpLen := binary.LittleEndian.Uint64(body[off:])
	off += 8 + int(fpLen)
	nsect := binary.LittleEndian.Uint32(body[off:])
	off += 4
	for i := uint32(0); i < nsect; i++ {
		tagLen := binary.LittleEndian.Uint64(body[off:])
		off += 8 + int(tagLen)
		lenOff = off
		payLen := binary.LittleEndian.Uint64(body[off:])
		off += 8 + int(payLen)
	}
	if off != len(body) {
		t.Fatalf("section walk ended at %d of %d", off, len(body))
	}
	return lenOff
}

// truncateLastSection rewrites a snapshot so its container stays valid
// (magic, version, fingerprint, CRC all intact) but the final section's
// payload is 8 bytes short — corruption only the per-section decode can
// catch, after every earlier section already decoded successfully.
func truncateLastSection(t *testing.T, data []byte) []byte {
	t.Helper()
	body := append([]byte(nil), data[:len(data)-4]...)
	lenOff := lastSection(t, body)
	payLen := binary.LittleEndian.Uint64(body[lenOff:])
	if payLen < 8 {
		t.Fatalf("last section too small to truncate")
	}
	binary.LittleEndian.PutUint64(body[lenOff:], payLen-8)
	body = body[:len(body)-8]
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// misplaceInFlight rewrites an FBD-AP snapshot so its container stays valid
// but channel 0's last in-flight prefetch record names a line none of the
// channel's AMB caches holds — a state no run can reach, since a landing
// time lives in its line's tag entry. The memctrl section (the last one)
// opens with channel 0, whose AMB caches follow its "caches present" flag:
// each writes sets and ways, 25-byte frames (address, valid flag, two order
// keys), its tick and six statistics. The in-flight count and the
// line-ordered (line, landing) records come next.
func misplaceInFlight(t *testing.T, data []byte, mem config.Mem) []byte {
	t.Helper()
	body := append([]byte(nil), data[:len(data)-4]...)
	payload := lastSection(t, body) + 8
	head := binary.LittleEndian.AppendUint64([]byte{1}, 1)
	head = binary.LittleEndian.AppendUint64(head, uint64(mem.AMBCacheLines))
	at := bytes.Index(body[payload:], head)
	if at < 0 {
		t.Fatalf("no fully associative AMB cache in the memctrl section")
	}
	off := payload + at + 1
	resident := map[int64]bool{}
	for a := 0; a < mem.DIMMsPerChannel; a++ {
		off += 16
		for f := 0; f < mem.AMBCacheLines; f++ {
			if body[off+8] == 1 {
				resident[int64(binary.LittleEndian.Uint64(body[off:]))] = true
			}
			off += 25
		}
		off += 8 + 6*8
	}
	n := int(binary.LittleEndian.Uint64(body[off:]))
	if n < 1 || n > mem.DIMMsPerChannel*mem.AMBCacheLines {
		t.Fatalf("channel 0 holds %d in-flight records; want at least one", n)
	}
	last := off + 8 + (n-1)*16
	line := int64(binary.LittleEndian.Uint64(body[last:])) + int64(mem.LineBytes)
	for resident[line] {
		line += int64(mem.LineBytes)
	}
	binary.LittleEndian.PutUint64(body[last:], uint64(line))
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// restoreRejected restores bad into a fresh machine, requires ErrCorrupt
// with a message containing want, and then requires the machine to run
// exactly like one that never saw the snapshot: restore is all-or-nothing
// rather than section-by-section.
func restoreRejected(t *testing.T, cfg config.Config, benchmarks []string, bad []byte, want string) {
	t.Helper()
	s, err := New(cfg, benchmarks)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.RestoreSnapshot(bad, ""); !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), want) {
		t.Fatalf("corrupt payload: got %v, want ErrCorrupt containing %q", err, want)
	}
	clean, err := RunWorkload(cfg, benchmarks)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	got, err := s.Run()
	if err != nil {
		t.Fatalf("run after rejected restore: %v", err)
	}
	if !reflect.DeepEqual(clean, got) {
		t.Fatalf("rejected restore left the machine perturbed")
	}
}

// TestRestoreCorruptPayloadLeavesMachineUntouched: a snapshot whose
// container validates but whose last section fails to decode must be
// rejected with ErrCorrupt after the earlier sections were already decoded —
// and the live System must remain completely unmutated and runnable, proving
// restore is all-or-nothing rather than section-by-section.
func TestRestoreCorruptPayloadLeavesMachineUntouched(t *testing.T) {
	cfg := config.Default()
	equivBudgets(&cfg)
	_, data, _ := checkpointAt(t, cfg, []string{"swim"}, 0, true)
	restoreRejected(t, cfg, []string{"swim"}, truncateLastSection(t, data), "")
}

// TestRestoreMisplacedInFlightLeavesMachineUntouched: an in-flight prefetch
// record whose line is not resident in its DIMM's AMB cache is refused,
// and the refusal leaves the live System untouched.
func TestRestoreMisplacedInFlightLeavesMachineUntouched(t *testing.T) {
	cfg := config.WithAMBPrefetch(config.Default())
	equivBudgets(&cfg)
	_, data, _ := checkpointAt(t, cfg, []string{"swim"}, 0, true)
	restoreRejected(t, cfg, []string{"swim"}, misplaceInFlight(t, data, cfg.Mem), "not resident in its AMB cache")
}

// TestSnapshotBytesPinned pins the snapshot byte format: the warm
// checkpoint of a fixed run must hash to the digest committed when the
// format was last changed on purpose. A change to what a component writes,
// or to the order it writes it in, fails here until the snapshot version is
// bumped and the digests are re-derived deliberately.
func TestSnapshotBytesPinned(t *testing.T) {
	benchmarks := []string{"swim", "mcf"}
	for _, tc := range []struct {
		name   string
		cfg    config.Config
		digest string
	}{
		{"ddr2", config.DDR2Baseline(), "6880ee12243e000bc8cd9691eb2f288a7537466fc8a24280e862f85fa1a6c952"},
		{"fbd", config.Default(), "1ef26386581e145c066e0b88463faece2bcc2bb2c842c449ed538327d9a385fe"},
		{"fbd-ap", config.WithAMBPrefetch(config.Default()), "676977795ee5f69601ec6243426c98e59b068cbbf222fae2be6620dde41e27e3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			equivBudgets(&cfg)
			cfg.Seed = 3
			_, data, _ := checkpointAt(t, cfg, benchmarks, 0, true)
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != tc.digest {
				t.Errorf("warm checkpoint SHA-256 = %s, want %s", got, tc.digest)
			}
		})
	}
}
