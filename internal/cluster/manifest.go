package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"isla/internal/fsio"
)

// shardManifestName is the conventional file name of a shard manifest.
const shardManifestName = "shards.json"

// shardManifestVersion is the manifest format version this build writes
// and accepts.
const shardManifestVersion = 1

// ShardManifest is the catalog of a sharded table: which worker address
// owns which block ids at which lengths, plus (for grouped tables) the
// block sets of each group. It is the source of truth the coordinator
// validates every worker's Info inventory against before admitting it.
//
// Block order is the determinism contract's backbone: the table's global
// block order is the ascending block-id order, and a group's order is the
// order its Blocks list declares — both must match the single-node layout
// for answers to be bit-identical. The same block id in two shard entries
// declares a replica (the lengths must agree); failover between replicas
// never moves an answer bit because per-block seeds are keyed to block
// order, not worker identity.
type ShardManifest struct {
	Version int `json:"version"`
	// Column names the grouped column, informational (mirrored into the
	// engine's GROUP BY validation); empty for ungrouped tables.
	Column string       `json:"column,omitempty"`
	Shards []ShardEntry `json:"shards"`
	Groups []ShardGroup `json:"groups,omitempty"`
}

// ShardEntry assigns blocks to one worker address. Blocks and Lens are
// parallel slices.
type ShardEntry struct {
	Addr   string  `json:"addr"`
	Blocks []int   `json:"blocks"`
	Lens   []int64 `json:"lens"`
}

// Check requires an inventory — the block ids a worker serves, mapped to
// their lengths — to hold every block of the entry at the recorded length:
// the coordinator's check at admission and again before a health probe
// readmits a worker, and islaworker's before it listens.
func (e ShardEntry) Check(serves map[int]int64) error {
	for i, id := range e.Blocks {
		have, ok := serves[id]
		if !ok {
			return fmt.Errorf("cluster: %s does not serve block %d assigned to it by the shard manifest", e.Addr, id)
		}
		if have != e.Lens[i] {
			return fmt.Errorf("cluster: manifest mismatch for block %d: %s serves %d rows, manifest records %d",
				id, e.Addr, have, e.Lens[i])
		}
	}
	return nil
}

// ShardGroup assigns blocks to one group key, in the group's block order.
type ShardGroup struct {
	Key    string `json:"key"`
	Blocks []int  `json:"blocks"`
}

// Validate checks the manifest's internal consistency: version, at least
// one shard, each address in one entry and no block id twice in an entry
// (a worker cannot be its own replica), parallel block/length slices,
// replicas agreeing on lengths, and — when groups are declared — group keys
// unique, group block sets disjoint, and every group block assigned to some
// shard.
func (m *ShardManifest) Validate() error {
	if m.Version != shardManifestVersion {
		return fmt.Errorf("cluster: shard manifest version %d, this build reads %d", m.Version, shardManifestVersion)
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("cluster: shard manifest declares no shards")
	}
	lens := make(map[int]int64)
	addrs := make(map[string]bool, len(m.Shards))
	for si, e := range m.Shards {
		if e.Addr == "" {
			return fmt.Errorf("cluster: shard %d has no address", si)
		}
		if addrs[e.Addr] {
			return fmt.Errorf("cluster: shard manifest lists %s in two entries — a worker cannot be its own replica", e.Addr)
		}
		addrs[e.Addr] = true
		if len(e.Blocks) != len(e.Lens) {
			return fmt.Errorf("cluster: shard %s: %d blocks but %d lengths", e.Addr, len(e.Blocks), len(e.Lens))
		}
		if len(e.Blocks) == 0 {
			return fmt.Errorf("cluster: shard %s owns no blocks", e.Addr)
		}
		seen := make(map[int]bool, len(e.Blocks))
		for i, id := range e.Blocks {
			if id < 0 {
				return fmt.Errorf("cluster: shard %s: negative block id %d", e.Addr, id)
			}
			if e.Lens[i] < 0 {
				return fmt.Errorf("cluster: shard %s block %d: negative length %d", e.Addr, id, e.Lens[i])
			}
			if seen[id] {
				return fmt.Errorf("cluster: shard %s lists block %d twice — a shard cannot be its own replica", e.Addr, id)
			}
			seen[id] = true
			if have, ok := lens[id]; ok && have != e.Lens[i] {
				return fmt.Errorf("cluster: replica mismatch in manifest for block %d: %d vs %d rows", id, have, e.Lens[i])
			}
			lens[id] = e.Lens[i]
		}
	}
	if len(m.Groups) > 0 {
		keys := make(map[string]bool, len(m.Groups))
		grouped := make(map[int]string)
		for _, g := range m.Groups {
			if keys[g.Key] {
				return fmt.Errorf("cluster: duplicate group %q in shard manifest", g.Key)
			}
			keys[g.Key] = true
			if len(g.Blocks) == 0 {
				return fmt.Errorf("cluster: group %q owns no blocks", g.Key)
			}
			for _, id := range g.Blocks {
				if _, ok := lens[id]; !ok {
					return fmt.Errorf("cluster: group %q references block %d, which no shard serves", g.Key, id)
				}
				if prev, ok := grouped[id]; ok {
					return fmt.Errorf("cluster: block %d assigned to both group %q and group %q", id, prev, g.Key)
				}
				grouped[id] = g.Key
			}
		}
	}
	return nil
}

// BlockIDs returns the manifest's distinct block ids in ascending order —
// the table's global block order — with their lengths.
func (m *ShardManifest) BlockIDs() (ids []int, lens []int64) {
	byID := make(map[int]int64)
	for _, e := range m.Shards {
		for i, id := range e.Blocks {
			byID[id] = e.Lens[i]
		}
	}
	ids = make([]int, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	lens = make([]int64, len(ids))
	for i, id := range ids {
		lens[i] = byID[id]
	}
	return ids, lens
}

// TotalLen returns the table's row count: distinct blocks, replicas
// counted once.
func (m *ShardManifest) TotalLen() int64 {
	_, lens := m.BlockIDs()
	var t int64
	for _, l := range lens {
		t += l
	}
	return t
}

// Write validates the manifest and persists it as indented JSON through
// the atomic temp-file-and-rename path, so a crash mid-write can never
// leave a torn manifest behind — readers see the old file or the new one.
func (m *ShardManifest) Write(path string) error {
	if err := m.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("cluster: encoding shard manifest: %w", err)
	}
	return fsio.WriteFileBytes(path, append(data, '\n'), 0o644)
}

// ManifestFromWorkers builds the manifest of a table laid out as the workers
// at addrs already serve it: one shard entry per address, in addrs order,
// listing that worker's Worker.Info inventory by ascending block id. The
// same block id on two addresses declares a replica, the earlier address
// its primary; one address given twice is refused. fault supplies the
// per-call deadline; dial overrides the client factory (nil selects TCP).
func ManifestFromWorkers(addrs []string, fault Config, dial DialFunc) (*ShardManifest, error) {
	if dial == nil {
		dial = dialTCP
	}
	timeout := fault.withDefaults().CallTimeout
	man := &ShardManifest{Version: shardManifestVersion}
	for _, addr := range addrs {
		cl, serves, err := dialInventory(addr, timeout, dial)
		if err != nil {
			return nil, err
		}
		cl.Close()
		e := ShardEntry{Addr: addr, Blocks: make([]int, 0, len(serves)), Lens: make([]int64, len(serves))}
		for id := range serves {
			e.Blocks = append(e.Blocks, id)
		}
		sort.Ints(e.Blocks)
		for i, id := range e.Blocks {
			e.Lens[i] = serves[id]
		}
		man.Shards = append(man.Shards, e)
	}
	if err := man.Validate(); err != nil {
		return nil, err
	}
	return man, nil
}

// LoadShardManifest reads and validates a shard manifest.
func LoadShardManifest(path string) (*ShardManifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: reading shard manifest: %w", err)
	}
	var m ShardManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("cluster: parsing shard manifest %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
