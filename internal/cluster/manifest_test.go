package cluster

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"isla/internal/fsio"
)

func sampleManifest() *ShardManifest {
	return &ShardManifest{
		Version: 1,
		Column:  "region",
		Shards: []ShardEntry{
			{Addr: "10.0.0.1:7070", Blocks: []int{0, 1, 2}, Lens: []int64{100, 100, 50}},
			{Addr: "10.0.0.2:7070", Blocks: []int{3, 4}, Lens: []int64{80, 80}},
			{Addr: "10.0.0.3:7070", Blocks: []int{0, 1, 2}, Lens: []int64{100, 100, 50}}, // replica of shard 1
		},
		Groups: []ShardGroup{
			{Key: "east", Blocks: []int{0, 1, 2}},
			{Key: "west", Blocks: []int{3, 4}},
		},
	}
}

func TestShardManifestRoundTrip(t *testing.T) {
	man := sampleManifest()
	path := filepath.Join(t.TempDir(), shardManifestName)
	if err := man.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadShardManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, man) {
		t.Fatalf("round trip changed the manifest:\n got %+v\nwant %+v", got, man)
	}
	ids, lens := got.BlockIDs()
	if !reflect.DeepEqual(ids, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("block ids = %v", ids)
	}
	var tot int64
	for _, l := range lens {
		tot += l
	}
	if tot != 410 || got.TotalLen() != 410 {
		t.Fatalf("total = %d / %d, want 410 (replicas counted once)", tot, got.TotalLen())
	}
}

func TestShardManifestValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*ShardManifest)
		want string
	}{
		{"bad-version", func(m *ShardManifest) { m.Version = 2 }, "version"},
		{"no-shards", func(m *ShardManifest) { m.Shards = nil }, "no shards"},
		{"no-addr", func(m *ShardManifest) { m.Shards[0].Addr = "" }, "no address"},
		{"ragged", func(m *ShardManifest) { m.Shards[0].Lens = m.Shards[0].Lens[:2] }, "lengths"},
		{"empty-shard", func(m *ShardManifest) {
			m.Shards[1].Blocks, m.Shards[1].Lens = nil, nil
			m.Groups = nil
		}, "owns no blocks"},
		{"negative-id", func(m *ShardManifest) { m.Shards[0].Blocks[0] = -1 }, "negative block id"},
		{"negative-len", func(m *ShardManifest) { m.Shards[0].Lens[0] = -5 }, "negative length"},
		{"self-replica", func(m *ShardManifest) { m.Shards[1].Blocks = []int{3, 3}; m.Shards[1].Lens = []int64{80, 80} }, "twice"},
		{"addr-in-two-entries", func(m *ShardManifest) { m.Shards[2].Addr = m.Shards[0].Addr }, "10.0.0.1:7070 in two entries"},
		{"replica-len-mismatch", func(m *ShardManifest) { m.Shards[2].Lens[0] = 99 }, "replica mismatch"},
		{"dup-group", func(m *ShardManifest) { m.Groups[1].Key = "east" }, "duplicate group"},
		{"empty-group", func(m *ShardManifest) { m.Groups[0].Blocks = nil }, "owns no blocks"},
		{"unserved-group-block", func(m *ShardManifest) { m.Groups[0].Blocks = []int{0, 9} }, "no shard serves"},
		{"block-in-two-groups", func(m *ShardManifest) { m.Groups[1].Blocks = []int{2, 3, 4} }, "both group"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := sampleManifest()
			tc.mut(m)
			err := m.Validate()
			if err == nil {
				t.Fatal("invalid manifest accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q in it", err, tc.want)
			}
		})
	}
	if err := sampleManifest().Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
}

// TestManifestFromWorkersRefusesSelfReplica: one address given twice would
// make that worker its own replica — failover would retry the process that
// just died — so the manifest read from the workers is refused, naming it.
func TestManifestFromWorkersRefusesSelfReplica(t *testing.T) {
	addr := startWorker(t, normalBlocks(t, 1000, 2, 5)...)
	if man, err := ManifestFromWorkers([]string{addr, addr}, Config{}, nil); err == nil || !strings.Contains(err.Error(), addr) {
		t.Fatalf("ManifestFromWorkers(%s twice) = %+v, %v; want a refusal naming it", addr, man, err)
	}
}

// TestShardManifestTornWriteLeavesOldManifest crashes the atomic write
// before its rename: the previous manifest must survive untouched — a
// reader never sees a torn file.
func TestShardManifestTornWriteLeavesOldManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), shardManifestName)
	old := sampleManifest()
	if err := old.Write(path); err != nil {
		t.Fatal(err)
	}

	crash := errors.New("simulated crash")
	restore := fsio.SetCrashHook(func(p fsio.CrashPoint) error {
		if p == fsio.CrashBeforeRename {
			return crash
		}
		return nil
	})
	replacement := sampleManifest()
	replacement.Shards[1].Lens[0] = 81
	err := replacement.Write(path)
	restore()
	if !errors.Is(err, crash) {
		t.Fatalf("crashed write returned %v", err)
	}

	got, err := LoadShardManifest(path)
	if err != nil {
		t.Fatalf("old manifest unreadable after crash: %v", err)
	}
	if !reflect.DeepEqual(got, old) {
		t.Fatalf("crashed write altered the published manifest:\n got %+v\nwant %+v", got, old)
	}
}

// TestShardManifestRejectsTornFile feeds a truncated JSON file to the
// loader: it must fail parsing, never half-load.
func TestShardManifestRejectsTornFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), shardManifestName)
	full := sampleManifest()
	if err := full.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShardManifest(path); err == nil {
		t.Fatal("torn manifest accepted")
	}
	// A well-formed file that breaks the replica contract is rejected by
	// validation, not just by the parser.
	if err := os.WriteFile(path, []byte(`{"version":1,"shards":[{"addr":"a","blocks":[0],"lens":[10]},{"addr":"b","blocks":[0],"lens":[11]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShardManifest(path); err == nil {
		t.Fatal("invalid manifest accepted")
	}
}
