package group

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"isla/internal/block"
	"isla/internal/fsio"
	"isla/internal/stats"
)

func integrityRows(n int) []Row {
	r := stats.NewRNG(31)
	keys := []string{"east", "west", "north"}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Group: keys[i%len(keys)], Value: 10 + r.Float64()}
	}
	return rows
}

// A manifest torn mid-write (truncated JSON) must fail OpenManifest with a
// parse error, never half-open a table.
func TestOpenManifestTorn(t *testing.T) {
	dir := t.TempDir()
	man, err := WriteFiles(dir, "region", integrityRows(300), 2)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(man, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenManifest(man, block.ModeAuto); err == nil {
		t.Fatal("OpenManifest accepted a torn manifest")
	}
}

// WriteFiles publishes the manifest atomically: a crash before the rename
// leaves no manifest at all (and the loader therefore sees a clean "not
// yet written" state, not a torn file).
func TestWriteFilesCrashLeavesNoTornManifest(t *testing.T) {
	dir := t.TempDir()
	crashed := errors.New("simulated crash")
	restore := fsio.SetCrashHook(func(p fsio.CrashPoint) error {
		if p == fsio.CrashBeforeRename {
			return crashed
		}
		return nil
	})
	_, err := WriteFiles(dir, "region", integrityRows(300), 2)
	restore()
	if !errors.Is(err, crashed) {
		t.Fatalf("err = %v, want the simulated crash", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("manifest exists after crash before rename: stat err = %v", err)
	}
}

// Scrubbing a grouped table's store finds corruption in a member group's
// file and quarantines the block once, under its table-wide ID: the table
// and the owning group's view both see it.
func TestGroupScrubMirrorsIntoCombined(t *testing.T) {
	dir := t.TempDir()
	man, err := WriteFiles(dir, "region", integrityRows(600), 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := OpenManifest(man, block.ModePread)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	rep, err := g.Combined().Scrub(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatalf("fresh grouped store scrub = %+v", rep)
	}
	total := rep.Blocks

	// Corrupt one block file of one group on disk.
	matches, err := filepath.Glob(filepath.Join(dir, "g*.???"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no block files found: %v", err)
	}
	victim := matches[len(matches)/2]
	if _, err := block.NewFaults(9).FlipPayloadByte(victim); err != nil {
		t.Fatal(err)
	}

	rep, err = g.Combined().Scrub(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Blocks != total || len(rep.Corrupt) != 1 {
		t.Fatalf("scrub after corruption = %+v, want 1 corrupt of %d", rep, total)
	}
	if rep.Corrupt[0].Path != victim {
		t.Errorf("corrupt path = %q, want %q", rep.Corrupt[0].Path, victim)
	}
	// The combined store is degraded by exactly the victim's rows.
	combined := g.Combined()
	ids := combined.QuarantinedIDs()
	if len(ids) != 1 || ids[0] != rep.Corrupt[0].BlockID {
		t.Fatalf("combined quarantined ids = %v, want exactly the reported %d", ids, rep.Corrupt[0].BlockID)
	}
	if covered := combined.CoveredLen(); covered >= combined.TotalLen() || covered == 0 {
		t.Fatalf("combined coverage %d of %d after quarantine", covered, combined.TotalLen())
	}
	// Exactly one group's view sees it, under the same id.
	owners := 0
	for _, k := range g.Groups() {
		s, _ := g.Group(k)
		switch got := s.QuarantinedIDs(); {
		case got == nil:
		case len(got) == 1 && got[0] == ids[0]:
			owners++
		default:
			t.Fatalf("group %q quarantined ids = %v, want none or %v", k, got, ids)
		}
	}
	if owners != 1 {
		t.Fatalf("%d groups see the quarantined block, want 1", owners)
	}
}
