package block

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"isla/internal/fsio"
	"isla/internal/stats"
)

// batterySeeds drive the fault injector; every case must detect the damage
// for every seed — detection cannot depend on where the flip lands.
var batterySeeds = []uint64{1, 2, 7}

// writeBattery writes one v3 block file of n synthetic values and returns
// its path.
func writeBattery(t *testing.T, n int) string {
	t.Helper()
	vals := make([]float64, n)
	r := stats.NewRNG(42)
	for i := range vals {
		vals[i] = r.Float64()*200 - 100
	}
	path := filepath.Join(t.TempDir(), "battery.islb")
	if err := WriteFile(path, vals); err != nil {
		t.Fatal(err)
	}
	return path
}

// A payload bit flip must fail the pread open outright, and the mmap open
// must succeed (verification there is on demand) but fail VerifyPayload.
func TestBatteryPayloadFlip(t *testing.T) {
	for _, seed := range batterySeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			path := writeBattery(t, 500)
			off, err := NewFaults(seed).FlipPayloadByte(path)
			if err != nil {
				t.Fatal(err)
			}
			if off < headerSize || off >= headerSize+8*500 {
				t.Fatalf("flip at %d landed outside the payload region", off)
			}

			var ce *CorruptBlockError
			if _, err := OpenFile(0, path); !errors.As(err, &ce) {
				t.Fatalf("OpenFile after payload flip: err = %v, want *CorruptBlockError", err)
			} else if !strings.Contains(ce.Reason, "payload checksum mismatch") {
				t.Fatalf("reason = %q, want a payload checksum mismatch", ce.Reason)
			}

			if !MmapSupported() {
				return
			}
			mb, err := OpenMmap(0, path)
			if err != nil {
				t.Fatalf("OpenMmap verifies lazily and must still open: %v", err)
			}
			defer mb.Close()
			checked, err := mb.VerifyPayload()
			if !checked {
				t.Fatal("mmap VerifyPayload: checked = false for a v3 file")
			}
			ce = nil
			if !errors.As(err, &ce) {
				t.Fatalf("mmap VerifyPayload: err = %v, want *CorruptBlockError", err)
			}
		})
	}
}

// A torn tail — the signature a crashed non-atomic writer would leave —
// must be diagnosed as truncation, distinctly from other corruption, on
// both open paths.
func TestBatteryTornTail(t *testing.T) {
	for _, seed := range batterySeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			path := writeBattery(t, 300)
			cut, err := NewFaults(seed).TruncateTail(path, 200)
			if err != nil {
				t.Fatal(err)
			}
			if cut < 1 || cut > 200 {
				t.Fatalf("cut %d bytes, want within (0, 200]", cut)
			}
			for _, mode := range openModes() {
				var ce *CorruptBlockError
				_, err := Open(0, path, mode)
				if !errors.As(err, &ce) {
					t.Fatalf("mode=%v: err = %v, want *CorruptBlockError", mode, err)
				}
				if !strings.Contains(ce.Reason, "truncated") {
					t.Fatalf("mode=%v: reason = %q, want a truncation diagnosis", mode, ce.Reason)
				}
			}
		})
	}
}

// Extra bytes after the footer get the complementary diagnosis.
func TestBatteryTrailingData(t *testing.T) {
	path := writeBattery(t, 100)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xAB, 0xCD}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var ce *CorruptBlockError
	if _, err := OpenFile(0, path); !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptBlockError", err)
	} else if !strings.Contains(ce.Reason, "trailing data") {
		t.Fatalf("reason = %q, want a trailing-data diagnosis", ce.Reason)
	}
}

// A footer bit flip must fail the footer's own CRC at open time.
func TestBatteryFooterFlip(t *testing.T) {
	for _, seed := range batterySeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			path := writeBattery(t, 200)
			if _, err := NewFaults(seed).CorruptFooter(path); err != nil {
				t.Fatal(err)
			}
			var ce *CorruptBlockError
			if _, err := OpenFile(0, path); !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *CorruptBlockError", err)
			}
		})
	}
}

func openModes() []OpenMode {
	modes := []OpenMode{ModePread}
	if MmapSupported() {
		modes = append(modes, ModeMmap)
	}
	return modes
}

// A crash between the temp write and the rename must never expose a
// partial block under the published name: the path is simply absent, and
// a later retry produces a fully valid file.
func TestWriteFileCrashNeverExposesPartialBlock(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crash.islb")
	vals := []float64{1, 2, 3, 4, 5}
	crashed := errors.New("simulated crash")
	restore := fsio.SetCrashHook(func(p fsio.CrashPoint) error {
		if p == fsio.CrashBeforeRename {
			return crashed
		}
		return nil
	})
	if err := WriteFile(path, vals); !errors.Is(err, crashed) {
		restore()
		t.Fatalf("err = %v, want the simulated crash", err)
	}
	restore()
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("published name exists after crash before rename: stat err = %v", err)
	}
	// Whatever the crash left behind is dot-prefixed — invisible to the
	// glob loaders (islacli -load matches prefix.*).
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), ".") {
			t.Errorf("crash left a visible file %q", e.Name())
		}
	}
	// The retry after "reboot" publishes a complete, verifiable block.
	if err := WriteFile(path, vals); err != nil {
		t.Fatal(err)
	}
	fb, err := OpenFile(0, path)
	if err != nil {
		t.Fatalf("retry produced an unopenable block: %v", err)
	}
	defer fb.Close()
	if checked, err := fb.VerifyPayload(); !checked || err != nil {
		t.Fatalf("VerifyPayload = (%v, %v), want (true, nil)", checked, err)
	}
}

// A crash after the rename leaves a complete, valid block — publication
// already happened, only the rename's durability was pending.
func TestWriteFileCrashAfterRenameLeavesValidBlock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.islb")
	crashed := errors.New("simulated crash")
	restore := fsio.SetCrashHook(func(p fsio.CrashPoint) error {
		if p == fsio.CrashAfterRename {
			return crashed
		}
		return nil
	})
	err := WriteFile(path, []float64{9, 8, 7})
	restore()
	if !errors.Is(err, crashed) {
		t.Fatalf("err = %v, want the simulated crash", err)
	}
	fb, err := OpenFile(0, path)
	if err != nil {
		t.Fatalf("block invalid after crash-after-rename: %v", err)
	}
	fb.Close()
}

// The full scrub cycle: corruption that lands after open is found by a
// scrub, the block is quarantined (refusing scans, shrinking coverage),
// and an in-place repair plus ClearQuarantine restores full health.
func TestStoreScrubQuarantineAndRepair(t *testing.T) {
	for _, mode := range openModes() {
		t.Run(fmt.Sprintf("mode=%v", mode), func(t *testing.T) {
			dir := t.TempDir()
			const nBlocks, perBlock = 4, 250
			r := stats.NewRNG(11)
			paths := make([]string, nBlocks)
			pristine := make([][]byte, nBlocks)
			blocks := make([]Block, nBlocks)
			for i := range paths {
				vals := make([]float64, perBlock)
				for j := range vals {
					vals[j] = r.Float64()
				}
				paths[i] = filepath.Join(dir, fmt.Sprintf("blk.%03d", i))
				if err := WriteFile(paths[i], vals); err != nil {
					t.Fatal(err)
				}
				raw, err := os.ReadFile(paths[i])
				if err != nil {
					t.Fatal(err)
				}
				pristine[i] = raw
				b, err := Open(i, paths[i], mode)
				if err != nil {
					t.Fatal(err)
				}
				blocks[i] = b
			}
			s := NewStore(blocks...)
			defer s.Close()

			rep, err := s.Scrub(context.Background(), 2)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Healthy() || rep.Verified != nBlocks {
				t.Fatalf("healthy store scrub = %+v", rep)
			}

			// Damage block 2 behind the open store's back.
			const victim = 2
			if _, err := NewFaults(3).FlipPayloadByte(paths[victim]); err != nil {
				t.Fatal(err)
			}
			rep, err = s.Scrub(context.Background(), 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Corrupt) != 1 || rep.Corrupt[0].BlockID != victim {
				t.Fatalf("scrub found %+v, want exactly block %d", rep.Corrupt, victim)
			}
			if ids := s.QuarantinedIDs(); !slices.Equal(ids, []int{victim}) {
				t.Fatalf("QuarantinedIDs = %v, want [%d]", ids, victim)
			}
			if got, want := s.CoveredLen(), int64((nBlocks-1)*perBlock); got != want {
				t.Fatalf("CoveredLen = %d, want %d", got, want)
			}
			// The store-level walk refuses the quarantined block.
			var ce *CorruptBlockError
			if err := s.Scan(func(float64) error { return nil }); !errors.As(err, &ce) {
				t.Fatalf("store Scan over a quarantined block: err = %v, want *CorruptBlockError", err)
			}

			// Repair in place (same inode, so the open handles and mappings
			// see the restored bytes), clear, re-scrub: healthy again.
			if err := os.WriteFile(paths[victim], pristine[victim], 0o644); err != nil {
				t.Fatal(err)
			}
			s.ClearQuarantine()
			rep, err = s.Scrub(context.Background(), 2)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Healthy() {
				t.Fatalf("scrub after repair = %+v, want healthy", rep)
			}
			if ids := s.QuarantinedIDs(); ids != nil {
				t.Fatalf("QuarantinedIDs after repair = %v, want none", ids)
			}
		})
	}
}
