package workload

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"isla/internal/block"
	"isla/internal/group"
)

// FromSpec materializes the -gen table-spec syntax shared by islacli,
// islaserv, islaworker and datagen: "name=dist:key=val,..." with distributions normal (mu, sigma),
// exp (gamma), uniform (lo, hi), salary, tlc, tpch and noniid, plus the
// common n, blocks and seed parameters. It returns the table name, its
// generated store and the distribution's exact mean.
func FromSpec(spec string) (string, *block.Store, float64, error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok {
		return "", nil, 0, fmt.Errorf("workload: bad table spec %q (want name=dist:params)", spec)
	}
	dist, params, _ := strings.Cut(rest, ":")
	kv := map[string]float64{"mu": 100, "sigma": 20, "gamma": 0.1, "lo": 1, "hi": 199,
		"n": 1_000_000, "blocks": 10, "seed": 1}
	if params != "" {
		for _, p := range strings.Split(params, ",") {
			k, v, ok := strings.Cut(p, "=")
			if !ok {
				return "", nil, 0, fmt.Errorf("workload: bad param %q in %q", p, spec)
			}
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return "", nil, 0, fmt.Errorf("workload: bad value %q in %q", v, spec)
			}
			kv[strings.TrimSpace(k)] = f
		}
	}
	n, blocks, seed := int(kv["n"]), int(kv["blocks"]), uint64(kv["seed"])
	var (
		store *block.Store
		mean  float64
		err   error
	)
	switch strings.ToLower(dist) {
	case "normal", "":
		store, mean, err = Normal(kv["mu"], kv["sigma"], n, blocks, seed)
	case "exp", "exponential":
		store, mean, err = Exponential(kv["gamma"], n, blocks, seed)
	case "uniform":
		store, mean, err = UniformRange(kv["lo"], kv["hi"], n, blocks, seed)
	case "salary":
		store, mean, err = Salary(n, blocks, seed)
	case "tlc":
		store, mean, err = TLCTrips(n, blocks, seed)
	case "tpch":
		store, mean, err = TPCHLineitem(n, blocks, seed)
	case "noniid":
		store, mean, err = PaperNonIID(n/5, seed)
	default:
		return "", nil, 0, fmt.Errorf("workload: unknown distribution %q", dist)
	}
	if err != nil {
		return "", nil, 0, err
	}
	return name, store, mean, nil
}

// GroupFromSpec materializes the grouped table-spec syntax of the
// islacli/islaserv -gengroup flag:
//
//	"name=column;key:dist:params;key2:dist:params"
//
// The first semicolon-separated field names the group column; each later
// field is "<group key>:<dist spec>" where the dist spec reuses the
// FromSpec syntax (normal:mu=100,sigma=20,n=100000,blocks=10, …).
// It returns the table name and the grouped store.
func GroupFromSpec(spec string) (string, *group.Store, error) {
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
		_, store, _, err := FromSpec("g=" + dspec)
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
