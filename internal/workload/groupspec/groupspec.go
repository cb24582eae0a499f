// Package groupspec parses the CLI grouped-table spec syntax. It lives
// apart from package workload so workload stays importable from low-level
// packages' tests: groupspec composes workload's distribution specs with
// group stores (which depend on the core estimator).
package groupspec

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"isla/internal/block"
	"isla/internal/group"
	"isla/internal/workload"
)

// FromSpec materializes the grouped table-spec syntax of the
// islacli/islaserv -gengroup flag:
//
//	"name=column;key:dist:params;key2:dist:params"
//
// The first semicolon-separated field names the group column; each later
// field is "<group key>:<dist spec>" where the dist spec reuses the
// workload.FromSpec syntax (normal:mu=100,sigma=20,n=100000,blocks=10, …).
// It returns the table name and the grouped store.
func FromSpec(spec string) (string, *group.Store, error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok {
		return "", nil, fmt.Errorf("workload: bad grouped spec %q (want name=column;key:dist:params;...)", spec)
	}
	parts := strings.Split(rest, ";")
	if len(parts) < 2 {
		return "", nil, fmt.Errorf("workload: grouped spec %q names no groups", spec)
	}
	column := strings.TrimSpace(parts[0])
	groups := make(map[string]*block.Store, len(parts)-1)
	for _, part := range parts[1:] {
		key, dspec, ok := strings.Cut(part, ":")
		if !ok {
			return "", nil, fmt.Errorf("workload: bad group %q in %q (want key:dist:params)", part, spec)
		}
		key = strings.TrimSpace(key)
		if _, dup := groups[key]; dup {
			return "", nil, fmt.Errorf("workload: duplicate group %q in %q", key, spec)
		}
		_, store, err := workload.FromSpec("g=" + dspec)
		if err != nil {
			return "", nil, fmt.Errorf("workload: group %q: %w", key, err)
		}
		groups[key] = store
	}
	// A grouped table numbers its blocks table-wide, group after group in
	// sorted-key order; the generated blocks are in-memory, so renumbering
	// rewraps their data.
	id := 0
	for _, key := range slices.Sorted(maps.Keys(groups)) {
		var blocks []block.Block
		for _, b := range groups[key].Blocks() {
			blocks = append(blocks, block.NewMemBlock(id, b.(*block.MemBlock).Data()))
			id++
		}
		groups[key] = block.NewStore(blocks...)
	}
	g, err := group.NewStore(column, groups)
	if err != nil {
		return "", nil, err
	}
	return name, g, nil
}
