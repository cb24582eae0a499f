package isla

// TestDesign keeps the paper's system (pre-estimation, calculation and
// summarization over blocks) in one copy. It type-checks every package that
// `go list ./...` reports, from the files its build constraints select: one
// `go list -export -deps` call names the packages and finds the standard
// library's export data in the build cache, and go/types checks the
// module's own packages from source, in dependency order, through
// importer.ForCompiler(fset, "gc", …). Every rule reads that one load:
//
//  1. layering: every package of the module and every import it makes of
//     another is listed in the layering table;
//  2. singletons: the declarations a second copy would have to repeat (the
//     planned phase request, the experiment list, the block source's method
//     set, an O(1) answer of one shape) exist once;
//  3. exported: every exported top-level name under internal/ has a
//     reference from non-test code outside its own declaration;
//  4. implementers: core.BlockSource and block.Block have the listed
//     production implementations, and a block kind takes a *stats.RNG only
//     in SampleInto;
//  5. producers: the functions and methods that return an answer
//     (core.Result, FilteredResult, BlockResult) are listed;
//  6. knobs: no field of a configuration struct (core.Config and every other
//     …Config or …Options) gets the same constant from every non-test
//     assignment;
//  7. twins: no exported function has a twin that differs only by a
//     Context/Parallel suffix or a context.Context parameter;
//  8. surfaces: the exported method sets of isla.DB, engine.Engine and
//     cluster.Worker (whose methods net/rpc serves) are listed;
//  9. wire: only the types Worker's RPC methods reach cross gob, and the
//     retired wire types are referred to from ./benchmark alone;
//  10. residual: the deleted forms no typed rule can state (a name, a
//     statement, a string or a flag spelling), one line pattern each.
//
// A failure names its rule. To change a rule on purpose, edit its table.
// TestDesignRulesTrip shows rules 4–9 each failing on a synthetic violation.
// `go test -run 'Design$' -v .` also logs the exported names that only
// ./benchmark still uses and every exemption the tables grant.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"regexp/syntax"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// layering lists every package directory of the module and the module
// packages it imports outside its tests: "isla" is the root facade and a
// bare name is internal/<name>. A new package or a new import edge fails
// until it is written here, and so does an edge that is gone.
var layering = map[string]string{
	".":                   "block cluster core engine extreme group ingest plancache query",
	"benchmark":           "isla block cluster core engine exec group leverage modulate plancache query serve stats",
	"cmd/datagen":         "block stats workload",
	"cmd/islacli":         "engine tableflags",
	"cmd/islarepro":       "repro",
	"cmd/islaserv":        "serve tableflags",
	"cmd/islaworker":      "isla block tableflags workload",
	"internal/baseline":   "block core leverage stats",
	"internal/block":      "exec fsio stats",
	"internal/cluster":    "block core exec fsio leverage stats",
	"internal/core":       "block exec leverage modulate stats",
	"internal/engine":     "baseline block core group leverage metrics plancache query stats",
	"internal/exec":       "",
	"internal/extreme":    "block core stats",
	"internal/fsio":       "",
	"internal/group":      "block fsio",
	"internal/ingest":     "block",
	"internal/leverage":   "stats",
	"internal/metrics":    "",
	"internal/modulate":   "leverage stats",
	"internal/plancache":  "",
	"internal/query":      "",
	"internal/repro":      "baseline block core extreme leverage modulate stats workload",
	"internal/serve":      "block core engine metrics query",
	"internal/stats":      "",
	"internal/tableflags": "block cluster engine group ingest workload",
	"internal/workload":   "block group stats",
}

// testHooks are the exported names under internal/ that only other
// packages' tests call, each with the reason it is exported.
var testHooks = map[string]string{
	"internal/block.NewFaults":   "the corruption batteries of engine, group and serve damage block files with block's seeded injector",
	"internal/fsio.SetCrashHook": "the crash tests of block, group and cluster stop an atomic write at a chosen point",
}

// implementations lists each interface's production implementations: a
// third block source is a second execution surface beside the store's and
// the shards', and a block kind beyond memory, pread and mmap (a
// renumbering or filtering wrapper) is a second namespace or sampler.
var implementations = map[string]string{
	"internal/core.BlockSource": "internal/cluster.shardSource internal/core.storeSource",
	"internal/block.Block":      "internal/block.FileBlock internal/block.MemBlock internal/block.MmapBlock",
}

// producers lists the production functions and methods that return an
// answer (core.Result, core.FilteredResult or core.BlockResult, by value,
// pointer or slice): the estimation pipeline and the entry points over it.
// A …Remote copy of the pipeline, an i.i.d. route or a per-block RunBlock is
// a new row, so it is a deliberate edit.
var producers = `
	isla.Estimate
	internal/cluster.ShardView.EstimateFilteredFrozen
	internal/cluster.ShardView.EstimateFrozen
	internal/core.Estimate
	internal/core.EstimateFilteredFrozen
	internal/core.EstimateFrozen
	internal/core.LocalExecutor.EstimateFilteredFrozen
	internal/core.LocalExecutor.EstimateFrozen
	internal/core.SummarizeBlocks
	internal/core.summarize
	internal/repro.partials
`

// knobExempt are the configuration fields that keep one constant in
// non-test code, each with the reason it is still a field. A key that names
// no field is an error.
var knobExempt = map[string]string{
	"internal/core.Config.MaxSampleRate": "benchmark/replay.go reads it, and ./benchmark is frozen until ROADMAP item 3 thaws it",
	"internal/extreme.Config.SampleRate": "a required rate with no default: EstimateExtreme's caller chooses it, and the reproduction's ablation is the one production caller",
	"benchmark.runOptions.shrink":        "every workload shrinks by 1; ./benchmark is frozen until ROADMAP item 3 thaws it",
}

// surfaces lists the exported method sets of the types through which the
// system is driven. A new setter, switch or fault hook is a deliberate edit;
// the Context twins of Query, ExecuteSQL and Execute follow database/sql.
var surfaces = map[string]string{
	"isla.DB": "BaseConfig DisablePlanCache EnablePlanCache Execute ExecuteContext PlanCacheStats QuarantinedBlocks " +
		"Query QueryContext RegisterGrouped RegisterGroupedRows RegisterSharded RegisterSlice RegisterStore " +
		"Scrub SetAllowPartial SetBaseConfig SetWorkers Tables",
	"internal/engine.Engine": "BaseConfig DisablePlanCache EnablePlanCache Execute ExecuteContext ExecuteSQL ExecuteSQLContext " +
		"Metrics PlanCache QuarantinedBlocks Scrub SetAllowPartial SetBaseConfig SetWorkers Stats",
	"internal/cluster.Worker": "Batch Close Info ListenAndServe Serve ServeError",
}

// wireTypes are the module's named types that cross gob: exactly those the
// argument and reply types of cluster.Worker's RPC methods reach.
var wireTypes = "internal/cluster.BatchArgs internal/cluster.BatchReply internal/cluster.InfoReply internal/cluster.PhaseArgs " +
	"internal/cluster.PhaseReply internal/cluster.RegionSums internal/core.Filter internal/leverage.Boundaries"

// retiredWire are the per-kind wire items the phase items replaced. They stay
// declared only for ./benchmark's gob probe (benchmark/layers.go), and no
// other package may refer to them.
var retiredWire = "FilterArgs FilterSampleReply FilterValuesReply PilotStateArgs PilotStateReply SampleArgs SampleReply"

// residual holds the deleted forms that no typed rule can state: a pattern
// matched against each line of the non-test Go files under scope
// (space-separated directories, "." the module, a leading "-" excluding one).
// Its form says why: the typed rules see shapes (implementations, answer
// types, constant settings, signatures, method sets, the wire), and these
// are names whose declarations have ordinary shapes (a test oracle's is
// legitimate in a _test.go file), unexported names, statements inside a
// function, strings or flag spellings.
var residual = []struct{ pattern, scope, form, reason string }{
	{`type Faults struct`, "internal/cluster", "name", "the transport fault harness lives in cluster's tests"},
	{`ClusterFaults`, ".", "name", "fault injection lives in cluster's tests; the facade's switch had no production caller"},
	{`PredFilter\(|func FilterChunk\(|func SampleFilteredChunks\(`, ".", "test-oracle name", "a filter has one form, the compiled interval; the closure filter lives on as a test oracle only"},
	{`group\.Options|func Aggregate\(`, ".", "name", "GROUP BY has one executor, the engine's; group.Aggregate and its options are a fork"},
	{`DisablePruning`, ".", "field name", "pruning never moves an answer bit (tests compare against a summary-less copy); a switch only tests set is no knob the knobs rule sees"},
	{`exec\.Budget|ErrBudgetExceeded`, ".", "name", "a source returns fresh power sums and PhaseReq.Reply merges and resolves them; exec sink machinery is a second calculation"},
	{`\bWithTimeBudget\(`, ".", "name", "ParseWithTimeBudget lets validate judge an injected budget; Query.WithTimeBudget is a second validator"},
	{`FixedSamples|SamplesPerSecond|CoveredBlocks|func calibrate\(|type budgeted struct`, ".", "name", "a time-bound run is an online session's rounds against a deadline; a calibration burst, a block-prefix cutoff or their knobs are a second time-bound loop"},
	{`FilterPilotBlock|FilterCalcBlock|FilterCalcRep|type FilterReq struct|func \([^)]*\) Filter(Pilot|Calc)\(`, ".", "name", "a filtered phase is moments requests under a filter; per-kind filtered functions, types or methods are a second phase kind"},
	{`SummaryCRC|SummaryChecksum|func \([^)]*\) Checksum\(\)`, ".", "name", "a table version is its name and catalog generation; a checksum is a second fingerprint"},
	{`^\s+AllowPartial\s`, "internal/cluster", "field name", "a query degrades under its own core.Config.AllowPartial; a transport switch is a second one"},
	{`^\s+PilotCached\s`, "internal/core", "field name", "whether the plan cache served the pilot is route state; it is the engine's, not the estimator's"},
	{`func genStore`, ".", "unexported name", "workload.FromSpec is the one table-spec grammar"},
	{`perTable`, ".", "unexported name", "the engine's per-table query counts live in the metrics registry only"},
	{`type partial struct`, "internal/engine", "unexported name", "one answer has one type, engine.Answer, from route to wire"},
	{`quotaLens`, ".", "unexported name", "the filtered pipeline refuses down blocks; planning quotas around them is a silent degradation"},
	{`func runCluster\(`, "cmd/islacli", "unexported name", "-cluster is a tableflags source, so the command loads through the shared layers"},
	{`make\(chan item|pending := make\(map`, "internal/exec", "statement", "exec.Run writes each result in place on its workers; a collector is per-phase garbage"},
	{`"[^"]*time-budgeted runs`, "internal/engine", "string", "every sampling route runs over a core.BlockSource, shards included; refusing time-budgeted runs there is a second execution surface"},
	{`[(,] *"(dist|mu|sigma|gamma|lo|hi)",`, "cmd/datagen", "flag spelling", "datagen takes -gen, workload.FromSpec's grammar"},
}

// rules are TestDesign's checks, each reading the loaded module and
// reporting to its own findings.
var rules = []struct {
	name  string
	check func(m *module, f *findings)
}{
	{"layering", checkLayering},
	{"singletons", checkSingletons},
	{"exported", checkExported},
	{"implementers", checkImplementers},
	{"producers", checkProducers},
	{"knobs", checkKnobs},
	{"twins", checkTwins},
	{"surfaces", checkSurfaces},
	{"wire", checkWire},
	{"residual", checkResidual},
}

func TestDesign(t *testing.T) {
	m := loadModule(t)
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			var f findings
			r.check(m, &f)
			for _, l := range f.logs {
				t.Logf("%s: %s", r.name, l)
			}
			for _, e := range f.errs {
				if e.pos.IsValid() {
					t.Errorf("%s: %s: %s", r.name, m.fset.Position(e.pos), e.msg)
				} else {
					t.Errorf("%s: %s", r.name, e.msg)
				}
			}
		})
	}
}

// trip is one synthetic violation of a rule: a file added to a package, or
// an existing file with each old string replaced by its new one.
type trip struct {
	rule, file string
	src        string      // the added file's source
	edits      [][2]string // old → new in the existing file
}

// trips holds one trip per typed rule.
var trips = []trip{
	{rule: "implementers", file: "designtrip.go", src: `package isla

import (
	"context"

	"isla/internal/block"
	"isla/internal/core"
)

type memSource struct{}

func (memSource) TotalLen() int64                   { return 0 }
func (memSource) Layout() ([]int, []int64)          { return nil, nil }
func (memSource) Summary(int) (block.Summary, bool) { return block.Summary{}, false }
func (memSource) Down() []bool                      { return nil }
func (memSource) Phase(context.Context, []core.PhaseReq, *core.Filter) ([]core.PhaseRep, error) {
	return nil, nil
}
`},
	{rule: "producers", file: "designtrip.go", src: `package isla

import "context"

func estimateRemote(ctx context.Context, s *Store, cfg Config) (Result, error) {
	return Estimate(ctx, s, cfg)
}
`},
	{rule: "knobs", file: "internal/core/config.go", edits: [][2]string{
		{"\tAllowPartial bool\n}", "\tAllowPartial bool\n\t// RelaxFactor is the paper's t_e.\n\tRelaxFactor float64\n}"},
		{"\treturn Config{\n", "\treturn Config{\n\t\tRelaxFactor: 3,\n"},
	}},
	{rule: "knobs", file: "internal/modulate/designtrip.go", src: `package modulate

type roundOptions struct {
	Mode   Mode
	Rounds int
}

func roundsFor(m Mode) roundOptions { return roundOptions{Mode: m, Rounds: 64} }
`},
	{rule: "twins", file: "designtrip.go", src: `package isla

import (
	"context"
	"time"
)

func EstimateTimeBoundContext(ctx context.Context, s *Store, cfg Config, budget time.Duration) (TimeBoundResult, error) {
	return EstimateTimeBound(ctx, s, cfg, budget)
}
`},
	{rule: "surfaces", file: "designtrip.go", src: `package isla

func (db *DB) SetFanout(n int) {}
`},
	{rule: "wire", file: "designtrip.go", src: `package isla

import "isla/internal/cluster"

var probe = cluster.FilterArgs{BlockID: 1}
`},
}

// TestDesignRulesTrip feeds every rule the module changed by one synthetic
// violation (every package that depends on the changed file checked again):
// the case's rule must report a position in that file and every other rule
// nothing, so each typed rule is shown to trip, and to trip alone.
func TestDesignRulesTrip(t *testing.T) {
	m := loadModule(t)
	for _, r := range rules[3:9] { // the typed rules
		if !slices.ContainsFunc(trips, func(c trip) bool { return c.rule == r.name }) {
			t.Errorf("rule %s has no trip case", r.name)
		}
	}
	for _, c := range trips {
		t.Run(c.rule, func(t *testing.T) {
			tm, file, err := m.with(c.file, c.src, c.edits)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rules {
				var f findings
				r.check(tm, &f)
				in := slices.ContainsFunc(f.errs, func(e finding) bool {
					return e.pos.IsValid() && file.Base() <= int(e.pos) && int(e.pos) <= file.Base()+file.Size()
				})
				switch {
				case r.name == c.rule && !in:
					t.Errorf("rule %s does not report %s", r.name, file.Name())
				case r.name != c.rule && len(f.errs) > 0:
					t.Errorf("rule %s reports too: %s", r.name, f.errs[0].msg)
				case r.name == c.rule:
					t.Logf("%s: %s", r.name, f.errs[0].msg)
				}
			}
		})
	}
}

// module is the type-checked module: every package `go list ./...` reports,
// in dependency order.
type module struct {
	fset   *token.FileSet
	pkgs   []*pkg
	byPath map[string]*pkg
	gc     types.Importer // the packages outside the module, from export data
}

// Import resolves a module package to its checked copy and any other to its
// export data.
func (m *module) Import(path string) (*types.Package, error) {
	if p := m.byPath[path]; p != nil {
		return p.types, nil
	}
	return m.gc.Import(path)
}

// pkg is one type-checked package of the module.
type pkg struct {
	path  string
	dir   string // slash-separated, relative to the module root, "." for the root
	files []*srcFile
	types *types.Package
	info  *types.Info
}

// srcFile is one parsed Go file of a package.
type srcFile struct {
	path string // slash-separated, relative to the module root
	src  []byte
	ast  *ast.File
}

var loaded = sync.OnceValues(load)

// loadModule returns the module, loaded once per test binary; it fails the
// test when the go command is missing or fails.
func loadModule(t *testing.T) *module {
	t.Helper()
	m, err := loaded()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func load() (*module, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,DepOnly", "./...")
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		DepOnly                 bool
	}
	var own []listed
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var l listed
		if err := dec.Decode(&l); err != nil {
			return nil, fmt.Errorf("go list: %v", err)
		}
		exports[l.ImportPath] = l.Export
		if !l.DepOnly {
			own = append(own, l)
		}
	}
	m := &module{fset: token.NewFileSet(), byPath: map[string]*pkg{}}
	m.gc = importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	for _, l := range own {
		dir, err := filepath.Rel(root, l.Dir)
		if err != nil {
			return nil, err
		}
		dir = filepath.ToSlash(dir)
		var files []*srcFile
		for _, name := range l.GoFiles {
			path := filepath.ToSlash(filepath.Join(dir, name))
			src, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			f, err := m.parse(path, src)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		p, err := m.check(l.ImportPath, dir, files)
		if err != nil {
			return nil, err
		}
		m.pkgs = append(m.pkgs, p)
		m.byPath[p.path] = p
	}
	return m, nil
}

func (m *module) parse(path string, src []byte) (*srcFile, error) {
	f, err := parser.ParseFile(m.fset, path, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	return &srcFile{path: path, src: src, ast: f}, nil
}

func (m *module) check(path, dir string, files []*srcFile) (*pkg, error) {
	p := &pkg{path: path, dir: dir, files: files, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	asts := make([]*ast.File, len(files))
	for i, f := range files {
		asts[i] = f.ast
	}
	var err error
	conf := types.Config{Importer: m}
	p.types, err = conf.Check(path, m.fset, asts, p.info)
	return p, err
}

// with returns a copy of the module in which file is added with src as its
// source or, when it exists, has edits applied, and every package that
// depends on it is checked again; and that file.
func (m *module) with(file, src string, edits [][2]string) (*module, *token.File, error) {
	c := &module{fset: m.fset, byPath: map[string]*pkg{}, gc: m.gc}
	var changed *srcFile
	for _, p := range m.pkgs {
		files, redo := p.files, false
		if p.dir == path.Dir(file) {
			files, redo = slices.Clone(files), true
			i := slices.IndexFunc(files, func(f *srcFile) bool { return f.path == file })
			if i >= 0 {
				src = string(files[i].src)
				for _, e := range edits {
					if !strings.Contains(src, e[0]) {
						return nil, nil, fmt.Errorf("%s does not hold %q", file, e[0])
					}
					src = strings.Replace(src, e[0], e[1], 1)
				}
			}
			f, err := c.parse(file, []byte(src))
			if err != nil {
				return nil, nil, err
			}
			if i >= 0 {
				files[i] = f
			} else {
				files = append(files, f)
			}
			changed = f
		}
		for _, imp := range p.types.Imports() {
			redo = redo || c.byPath[imp.Path()] != m.byPath[imp.Path()]
		}
		if redo {
			var err error
			if p, err = c.check(p.path, p.dir, files); err != nil {
				return nil, nil, err
			}
		}
		c.pkgs = append(c.pkgs, p)
		c.byPath[p.path] = p
	}
	if changed == nil {
		return nil, nil, fmt.Errorf("no package of the module lies in %s", path.Dir(file))
	}
	return c, m.fset.File(changed.ast.Pos()), nil
}

// findings collects what one rule reports: errors, each at the position that
// shows it (token.NoPos when none does), and notes for the verbose log.
type findings struct {
	errs []finding
	logs []string
}

type finding struct {
	pos token.Pos
	msg string
}

func (f *findings) errorf(pos token.Pos, format string, args ...any) {
	f.errs = append(f.errs, finding{pos, fmt.Sprintf(format, args...)})
}

func (f *findings) logf(format string, args ...any) {
	f.logs = append(f.logs, fmt.Sprintf(format, args...))
}

// relDir maps a module import path to its package directory, "" for a path
// outside the module.
func relDir(path string) string {
	if path == "isla" {
		return "."
	}
	if rest, ok := strings.CutPrefix(path, "isla/"); ok {
		return rest
	}
	return ""
}

// nameOf names a package-level object as the tables do: "isla.DB" for the
// root package, "internal/core.Config" for another.
func nameOf(obj types.Object) string {
	dir := relDir(obj.Pkg().Path())
	if dir == "." {
		dir = "isla"
	}
	return dir + "." + obj.Name()
}

// lookup returns the package-level object a table names, or nil.
func (m *module) lookup(name string) types.Object {
	i := strings.LastIndex(name, ".")
	path := "isla"
	if dir := name[:i]; dir != "isla" {
		path += "/" + dir
	}
	if p := m.byPath[path]; p != nil {
		return p.types.Scope().Lookup(name[i+1:])
	}
	return nil
}

// named returns the named type a table names; a missing one is reported
// and yields nil.
func (m *module) named(f *findings, name string) *types.Named {
	if obj := m.lookup(name); obj != nil {
		if n, ok := obj.Type().(*types.Named); ok {
			return n
		}
	}
	f.errorf(token.NoPos, "%s is not a named type of the module; fix its table", name)
	return nil
}

// isNamed reports whether t, with one pointer removed, is the named type
// called name (in nameOf's form).
func isNamed(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.Obj().Pkg() != nil && nameOf(n.Obj()) == name
}

// recvNamed returns the named type a method is declared on, nil for a
// function.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// funcName names a function as the producers table does: pkg.Func or
// pkg.Recv.Method.
func funcName(fn *types.Func) string {
	if r := recvNamed(fn); r != nil {
		return nameOf(r.Obj()) + "." + fn.Name()
	}
	return nameOf(fn)
}

func checkLayering(m *module, f *findings) {
	got := map[string]map[string]bool{}
	for _, p := range m.pkgs {
		got[p.dir] = map[string]bool{}
		for _, imp := range p.types.Imports() {
			switch dir := relDir(imp.Path()); dir {
			case "":
			case ".":
				got[p.dir]["isla"] = true
			default:
				got[p.dir][strings.TrimPrefix(dir, "internal/")] = true
			}
		}
	}
	for _, dir := range sortedKeys(got) {
		want, ok := layering[dir]
		if !ok {
			f.errorf(token.NoPos, "package %s is not in the layering table; a new package is a deliberate edit of the table (a second copy of a deleted one, such as internal/online, timebound, sample, load or bench, is not)", dir)
			continue
		}
		allowed := map[string]bool{}
		for _, p := range strings.Fields(want) {
			allowed[p] = true
		}
		for _, p := range sortedKeys(got[dir]) {
			if !allowed[p] {
				f.errorf(token.NoPos, "%s imports %s, an edge the layering table does not list", dir, p)
			}
		}
		for _, p := range sortedKeys(allowed) {
			if !got[dir][p] {
				f.errorf(token.NoPos, "the table lets %s import %s, which it no longer does; drop the edge", dir, p)
			}
		}
	}
	for _, dir := range sortedKeys(layering) {
		if got[dir] == nil {
			f.errorf(token.NoPos, "the table lists %s, which `go list ./...` does not report; drop its row", dir)
		}
	}
	if bench, _ := filepath.Glob("BENCH_*.json"); len(bench) > 0 {
		f.errorf(token.NoPos, "%v: ./benchmark is the one performance harness and keeps its own results", bench)
	}
}

func checkSingletons(m *module, f *findings) {
	// One calculation round: core's Plan.request builds every planned
	// request; a query, an online Refine and a time-bound round all run it.
	// One experiment list: internal/repro's Experiments.
	var planned, lists []string
	for _, p := range m.pkgs {
		for _, file := range p.files {
			ast.Inspect(file.ast, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				t := p.info.Types[lit].Type
				if c, ok := t.Underlying().(interface{ Elem() types.Type }); ok && isNamed(c.Elem(), "internal/repro.Experiment") {
					lists = append(lists, m.fset.Position(lit.Pos()).String())
				}
				if isNamed(t, "internal/core.PhaseReq") && slices.ContainsFunc(lit.Elts, func(e ast.Expr) bool {
					kv, ok := e.(*ast.KeyValueExpr)
					return ok && kv.Key.(*ast.Ident).Name == "Plan"
				}) {
					planned = append(planned, m.fset.Position(lit.Pos()).String())
				}
				return true
			})
		}
	}
	if len(planned) != 1 {
		f.errorf(token.NoPos, "%d non-test PhaseReq literals set a Plan %v, want 1: every calculation round is core's one round", len(planned), planned)
	}
	var vars []string
	if repro := m.byPath["isla/internal/repro"]; repro != nil {
		for _, name := range repro.types.Scope().Names() {
			if _, ok := repro.types.Scope().Lookup(name).(*types.Var); ok {
				vars = append(vars, name)
			}
		}
	}
	if len(lists) != 1 || strings.Join(vars, " ") != "Experiments" {
		f.errorf(token.NoPos, "experiment lists at %v and internal/repro variables %v, want one list, repro.Experiments: the paper's experiments are listed once", lists, vars)
	}

	// One execution surface: core declares one interface, BlockSource, and
	// a phase has one method.
	if core := m.byPath["isla/internal/core"]; core != nil {
		var ifaces []string
		for id, obj := range core.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				// A type parameter's constraint is an interface too.
				if _, named := tn.Type().(*types.Named); named && types.IsInterface(tn.Type()) {
					ifaces = append(ifaces, id.Name)
				}
			}
		}
		sort.Strings(ifaces)
		if strings.Join(ifaces, " ") != "BlockSource" {
			f.errorf(token.NoPos, "internal/core declares interfaces %v, want only BlockSource: every sampling route runs over a block source", ifaces)
		}
	}
	if src := m.named(f, "internal/core.BlockSource"); src != nil {
		var methods []string
		for i := range src.Underlying().(*types.Interface).NumMethods() {
			methods = append(methods, src.Underlying().(*types.Interface).Method(i).Name())
		}
		if got := strings.Join(methods, " "); got != "Down Layout Phase Summary TotalLen" {
			f.errorf(src.Obj().Pos(), "core.BlockSource has methods %s, want Down Layout Phase Summary TotalLen: a phase has one method and one request type", got)
		}
	}

	// An answer is O(1) and has one shape: per-block partials reach only a
	// caller that passes EstimateFrozen or EstimateFilteredFrozen a
	// destination, and the engine's answer does not carry the estimator's.
	for _, name := range []string{"internal/core.Result", "internal/core.FilteredResult", "internal/engine.Answer"} {
		n := m.named(f, name)
		if n == nil {
			continue
		}
		st := n.Underlying().(*types.Struct)
		for i := range st.NumFields() {
			fl := st.Field(i)
			switch fl.Type().Underlying().(type) {
			case *types.Slice, *types.Map:
				f.errorf(fl.Pos(), "%s has a slice or map field: an answer is O(1), per-block partials go to a destination the caller passes", name)
			}
			if name == "internal/engine.Answer" && (isNamed(fl.Type(), "internal/core.Result") || isNamed(fl.Type(), "internal/core.FilteredResult")) {
				f.errorf(fl.Pos(), "engine.Answer carries a core result: one answer has one shape, from route to wire")
			}
		}
	}
}

// exported is one exported top-level name of a package under internal/.
type exported struct {
	spans [][2]token.Pos  // its declaration, and a type's methods
	refs  map[string]bool // the directories whose non-test code names it
}

func (e *exported) inside(p token.Pos) bool {
	for _, s := range e.spans {
		if s[0] <= p && p < s[1] {
			return true
		}
	}
	return false
}

func checkExported(m *module, f *findings) {
	decls := map[string]*exported{} // nameOf → declaration
	declare := func(obj types.Object, n ast.Node) {
		if obj == nil || !obj.Exported() {
			return
		}
		e := decls[nameOf(obj)]
		if e == nil {
			e = &exported{refs: map[string]bool{}}
			decls[nameOf(obj)] = e
		}
		e.spans = append(e.spans, [2]token.Pos{n.Pos(), n.End()})
	}
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, file := range p.files {
			for _, d := range file.ast.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					// A method belongs to its receiver's type, so the type's
					// own methods do not keep it alive.
					fn := p.info.Defs[d.Name].(*types.Func)
					if r := recvNamed(fn); r != nil {
						declare(r.Obj(), d)
					} else {
						declare(fn, d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declare(p.info.Defs[s.Name], s)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								declare(p.info.Defs[n], s)
							}
						}
					}
				}
			}
		}
	}
	for _, p := range m.pkgs {
		for id, obj := range p.info.Uses {
			if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
				continue
			}
			if e := decls[nameOf(obj)]; e != nil && !e.inside(id.Pos()) {
				e.refs[p.dir] = true
			}
		}
	}

	var benchOnly []string
	for _, name := range sortedKeys(decls) {
		e := decls[name]
		_, hook := testHooks[name]
		switch {
		case len(e.refs) == 0 && !hook:
			f.errorf(e.spans[0][0], "%s has no reference from non-test code outside its declaration; delete it, unexport it, or move it into the tests that use it", name)
		case len(e.refs) > 0 && hook:
			f.errorf(token.NoPos, "%s has a non-test reference now; drop it from testHooks", name)
		case len(e.refs) == 1 && e.refs["benchmark"]:
			benchOnly = append(benchOnly, name)
		}
	}
	for _, name := range sortedKeys(testHooks) {
		if decls[name] == nil {
			f.errorf(token.NoPos, "test hook %s is gone; drop it from testHooks", name)
		} else {
			f.logf("test hook %s: %s", name, testHooks[name])
		}
	}
	f.logf("exported names only ./benchmark keeps alive: %s", strings.Join(benchOnly, " "))
}

func checkImplementers(m *module, f *findings) {
	for _, iname := range sortedKeys(implementations) {
		in := m.named(f, iname)
		if in == nil {
			continue
		}
		iface := in.Underlying().(*types.Interface)
		var got []string
		for _, p := range m.pkgs {
			for _, obj := range p.info.Defs {
				tn, ok := obj.(*types.TypeName)
				if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
					continue
				}
				if !types.Implements(tn.Type(), iface) && !types.Implements(types.NewPointer(tn.Type()), iface) {
					continue
				}
				got = append(got, nameOf(tn))
				if !slices.Contains(strings.Fields(implementations[iname]), nameOf(tn)) {
					f.errorf(tn.Pos(), "%s implements %s, which lists only %s: a further implementation is a second execution surface or block namespace", nameOf(tn), iname, implementations[iname])
				}
				if iname != "internal/block.Block" {
					continue
				}
				ms := types.NewMethodSet(types.NewPointer(tn.Type()))
				for i := range ms.Len() {
					fn := ms.At(i).Obj().(*types.Func)
					params := fn.Type().(*types.Signature).Params()
					for j := range params.Len() {
						if fn.Exported() && fn.Name() != "SampleInto" && isNamed(params.At(j).Type(), "internal/stats.RNG") {
							f.errorf(fn.Pos(), "%s.%s takes a *stats.RNG: a block kind has one sampling method, SampleInto", nameOf(tn), fn.Name())
						}
					}
				}
			}
		}
		for _, want := range strings.Fields(implementations[iname]) {
			if !slices.Contains(got, want) {
				f.errorf(token.NoPos, "%s no longer implements %s; fix the table", want, iname)
			}
		}
	}
}

// answers are the types whose producers the producers table lists.
var answers = []string{"internal/core.Result", "internal/core.FilteredResult", "internal/core.BlockResult"}

func checkProducers(m *module, f *findings) {
	want := strings.Fields(producers)
	var got []string
	for _, p := range m.pkgs {
		for _, file := range p.files {
			for _, d := range file.ast.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				res := fn.Type().(*types.Signature).Results()
				for i := range res.Len() {
					t := res.At(i).Type()
					if s, ok := t.(*types.Slice); ok {
						t = s.Elem()
					}
					if !slices.ContainsFunc(answers, func(a string) bool { return isNamed(t, a) }) {
						continue
					}
					got = append(got, funcName(fn))
					if !slices.Contains(want, funcName(fn)) {
						f.errorf(fn.Pos(), "%s returns %s, and producers does not list it: the estimation pipeline exists once, and a second copy, route or per-block runner produces answers of its own", funcName(fn), t)
					}
					break
				}
			}
		}
	}
	for _, name := range want {
		if !slices.Contains(got, name) {
			f.errorf(token.NoPos, "%s no longer returns an answer; drop it from producers", name)
		}
	}
}

func checkKnobs(m *module, f *findings) {
	// fields names every field of a configuration struct: a struct type of
	// the module whose name ends in Config or Options.
	fields := map[*types.Var]string{}
	for _, p := range m.pkgs {
		for _, name := range p.types.Scope().Names() {
			tn, ok := p.types.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Options") {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					fields[st.Field(i)] = nameOf(tn) + "." + st.Field(i).Name()
				}
			}
		}
	}
	// sets maps a field to the values its non-test assignments give it: a
	// literal that leaves it out sets it to zero, and a nil value is one
	// that is not a constant.
	type set struct {
		pos token.Pos
		val constant.Value
	}
	sets := map[*types.Var][]set{}
	for _, p := range m.pkgs {
		field := func(e ast.Expr) *types.Var {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if v, ok := p.info.Uses[sel.Sel].(*types.Var); ok && fields[v] != "" {
					return v
				}
			}
			return nil
		}
		for _, file := range p.files {
			ast.Inspect(file.ast, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					// A literal that names some fields sets the others to zero;
					// an empty one is a placeholder and sets none.
					st, ok := p.info.Types[n].Type.Underlying().(*types.Struct)
					if !ok || len(n.Elts) == 0 || st.NumFields() == 0 || fields[st.Field(0)] == "" {
						return true
					}
					given := map[*types.Var]ast.Expr{}
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							given[p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var)] = kv.Value
						} else {
							given[st.Field(i)] = e
						}
					}
					for i := range st.NumFields() {
						v := st.Field(i)
						if e, ok := given[v]; ok {
							sets[v] = append(sets[v], set{e.Pos(), p.info.Types[e].Value})
						} else {
							sets[v] = append(sets[v], set{n.Pos(), zero(v.Type())})
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if v := field(lhs); v != nil {
							var val constant.Value
							if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
								val = p.info.Types[n.Rhs[i]].Value
							}
							sets[v] = append(sets[v], set{lhs.Pos(), val})
						}
					}
				case *ast.IncDecStmt:
					if v := field(n.X); v != nil {
						sets[v] = append(sets[v], set{n.Pos(), nil})
					}
				case *ast.UnaryExpr: // &cfg.X hands the field to a setter, such as a flag
					if v := field(n.X); v != nil && n.Op == token.AND {
						sets[v] = append(sets[v], set{n.Pos(), nil})
					}
				}
				return true
			})
		}
	}
	var names []string
	byName := map[string]*types.Var{}
	for v, name := range fields {
		names = append(names, name)
		byName[name] = v
	}
	sort.Strings(names)
	for name := range knobExempt {
		if byName[name] == nil {
			f.errorf(token.NoPos, "%s names no field of a configuration struct; drop it from knobExempt", name)
		}
	}
	for _, name := range names {
		ss := sets[byName[name]]
		one := len(ss) > 0
		for _, s := range ss {
			one = one && s.val != nil && constant.Compare(s.val, token.EQL, ss[0].val)
		}
		reason, exempt := knobExempt[name]
		switch {
		case one && exempt:
			f.logf("exempt: %s is always set to %s: %s", name, ss[0].val, reason)
		case one:
			for _, s := range ss {
				f.errorf(s.pos, "%s is set to %s here and at every other non-test assignment (%d in all): a setting that only ever holds one value is a constant", name, s.val, len(ss))
			}
		case exempt:
			f.errorf(token.NoPos, "%s is no longer always one constant; drop it from knobExempt", name)
		}
	}
}

// zero is the constant zero value of t, or nil when t has none.
func zero(t types.Type) constant.Value {
	b, ok := t.Underlying().(*types.Basic)
	switch {
	case !ok:
		return nil
	case b.Info()&types.IsBoolean != 0:
		return constant.MakeBool(false)
	case b.Info()&types.IsNumeric != 0:
		return constant.MakeInt64(0)
	case b.Info()&types.IsString != 0:
		return constant.MakeString("")
	}
	return nil
}

// twinBase strips the suffixes a twin entry point adds.
func twinBase(name string) string {
	return strings.TrimSuffix(strings.TrimSuffix(name, "Context"), "Parallel")
}

func checkTwins(m *module, f *findings) {
	for _, p := range m.pkgs {
		var fns []*types.Func
		for _, name := range p.types.Scope().Names() {
			if fn, ok := p.types.Scope().Lookup(name).(*types.Func); ok && fn.Exported() {
				fns = append(fns, fn)
			}
		}
		for _, twin := range fns {
			for _, fn := range fns {
				if fn == twin {
					continue
				}
				if twinBase(twin.Name()) == fn.Name() || ctxTwin(twin, fn) {
					f.errorf(twin.Pos(), "%s is a twin of %s: one entry point takes a context, and parallel is Workers = -1", nameOf(twin), nameOf(fn))
				}
			}
		}
	}
}

// ctxTwin reports whether twin's signature is fn's with one context.Context
// parameter added.
func ctxTwin(twin, fn *types.Func) bool {
	ts, fs := twin.Type().(*types.Signature), fn.Type().(*types.Signature)
	if ts.Params().Len() != fs.Params().Len()+1 || ts.Variadic() != fs.Variadic() || !types.Identical(ts.Results(), fs.Results()) {
		return false
	}
	for skip := range ts.Params().Len() {
		if !isNamed(ts.Params().At(skip).Type(), "context.Context") {
			continue
		}
		same := true
		for i, j := 0, 0; i < fs.Params().Len(); i, j = i+1, j+1 {
			if j == skip {
				j++
			}
			same = same && types.Identical(fs.Params().At(i).Type(), ts.Params().At(j).Type())
		}
		if same {
			return true
		}
	}
	return false
}

func checkSurfaces(m *module, f *findings) {
	for _, name := range sortedKeys(surfaces) {
		n := m.named(f, name)
		if n == nil {
			continue
		}
		want := strings.Fields(surfaces[name])
		ms := types.NewMethodSet(types.NewPointer(n))
		var got []string
		for i := range ms.Len() {
			fn := ms.At(i).Obj()
			if !fn.Exported() {
				continue
			}
			got = append(got, fn.Name())
			if !slices.Contains(want, fn.Name()) {
				f.errorf(fn.Pos(), "%s.%s is not in %s's surface table: a new setter, switch, fault hook or RPC is a deliberate edit", name, fn.Name(), name)
			}
		}
		for _, w := range want {
			if !slices.Contains(got, w) {
				f.errorf(token.NoPos, "%s has no method %s now; drop it from surfaces", name, w)
			}
		}
	}
}

// gobCalls maps each call that hands values to gob to the positions of its
// arguments that cross.
var gobCalls = map[string][]int{
	"(*net/rpc.Client).Go":                {1, 2},
	"(*net/rpc.Client).Call":              {1, 2},
	"(isla/internal/cluster.Client).Go":   {1, 2},
	"(*encoding/gob.Encoder).Encode":      {0},
	"(*encoding/gob.Encoder).EncodeValue": {0},
	"(*encoding/gob.Decoder).Decode":      {0},
	"(*encoding/gob.Decoder).DecodeValue": {0},
}

func checkWire(m *module, f *findings) {
	// The wire is what the RPC methods' arguments and replies reach through
	// exported fields, as gob encodes them.
	reach := map[string]types.Object{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			if t.Obj().Pkg() == nil || relDir(t.Obj().Pkg().Path()) == "" {
				walk(t.Underlying())
				return
			}
			if reach[nameOf(t.Obj())] == nil {
				reach[nameOf(t.Obj())] = t.Obj()
				walk(t.Underlying())
			}
		case *types.Alias:
			walk(types.Unalias(t))
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Struct:
			for i := range t.NumFields() {
				if t.Field(i).Exported() {
					walk(t.Field(i).Type())
				}
			}
		}
	}
	worker := m.named(f, "internal/cluster.Worker")
	if worker == nil {
		return
	}
	ms := types.NewMethodSet(types.NewPointer(worker))
	for i := range ms.Len() {
		sig := ms.At(i).Obj().Type().(*types.Signature)
		if ms.At(i).Obj().Exported() && sig.Params().Len() == 2 && sig.Results().Len() == 1 {
			walk(sig.Params().At(0).Type())
			walk(sig.Params().At(1).Type())
		}
	}
	want := strings.Fields(wireTypes)
	for _, name := range sortedKeys(reach) {
		if !slices.Contains(want, name) {
			f.errorf(reach[name].Pos(), "%s crosses gob through Worker's RPC methods, and wireTypes does not list it: a new wire type is a deliberate edit", name)
		}
	}
	for _, name := range want {
		if reach[name] == nil {
			f.errorf(token.NoPos, "%s no longer crosses gob; drop it from wireTypes", name)
		}
	}

	retired := map[types.Object]bool{}
	for _, name := range strings.Fields(retiredWire) {
		obj := m.lookup("internal/cluster." + name)
		switch {
		case obj == nil:
			f.errorf(token.NoPos, "retired wire type cluster.%s is gone; drop it from retiredWire", name)
		case reach[nameOf(obj)] != nil:
			f.errorf(obj.Pos(), "retired wire type cluster.%s crosses gob again: PhaseArgs and PhaseReply are the one item pair", name)
		default:
			retired[obj] = true
			f.logf("exempt: retired wire type cluster.%s stays declared for ./benchmark's gob probe", name)
		}
	}
	for _, p := range m.pkgs {
		inBench := p.dir == "benchmark" || strings.HasPrefix(p.dir, "benchmark/")
		for id, obj := range p.info.Uses {
			if retired[obj] && !inBench {
				f.errorf(id.Pos(), "refers to retired wire type cluster.%s, which only ./benchmark's gob probe may: PhaseArgs and PhaseReply are the one item pair", obj.Name())
			}
		}
		for _, file := range p.files {
			ast.Inspect(file.ast, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := p.info.Uses[sel.Sel].(*types.Func)
				if !ok {
					return true
				}
				for _, i := range gobCalls[fn.FullName()] {
					t := p.info.Types[call.Args[i]].Type
					if ptr, ok := t.(*types.Pointer); ok {
						t = ptr.Elem()
					}
					named, _ := types.Unalias(t).(*types.Named)
					switch {
					case types.IsInterface(t): // handed on; checked where it is built
					case types.Identical(t, types.NewStruct(nil, nil)):
					case named != nil && named.Obj().Pkg() != nil && reach[nameOf(named.Obj())] != nil:
					case named != nil && retired[named.Obj()] && inBench:
					default:
						f.errorf(call.Args[i].Pos(), "%s hands %s to gob, which Worker's RPC methods do not reach", fn.FullName(), t)
					}
				}
				return true
			})
		}
	}
}

func checkResidual(m *module, f *findings) {
	for _, row := range residual {
		re := regexp.MustCompile(row.pattern)
		parsed, _ := syntax.Parse(row.pattern, syntax.Perl)
		words := needles(parsed)
		for _, p := range m.pkgs {
			if !inScope(p.dir, row.scope) {
				continue
			}
			for _, file := range p.files {
				if !containsAny(file.src, words) {
					continue
				}
				tf := m.fset.File(file.ast.Pos())
				for n, line := range strings.Split(string(file.src), "\n") {
					if loc := re.FindStringIndex(line); loc != nil {
						f.errorf(tf.LineStart(n+1)+token.Pos(loc[0]), "matches %q (%s): %s", line[loc[0]:loc[1]], row.form, row.reason)
					}
				}
			}
		}
	}
}

// needles returns literals one of which every match of re contains, longest
// first where there is a choice, or nil when there are none: a cheap test
// that skips the files a pattern cannot match.
func needles(re *syntax.Regexp) []string {
	switch re.Op {
	case syntax.OpLiteral:
		if re.Flags&syntax.FoldCase == 0 {
			return []string{string(re.Rune)}
		}
	case syntax.OpCapture:
		return needles(re.Sub[0])
	case syntax.OpConcat:
		var best []string
		for _, sub := range re.Sub {
			if n := needles(sub); n != nil && (best == nil || shortest(n) > shortest(best)) {
				best = n
			}
		}
		return best
	case syntax.OpAlternate:
		var all []string
		for _, sub := range re.Sub {
			n := needles(sub)
			if n == nil {
				return nil
			}
			all = append(all, n...)
		}
		return all
	}
	return nil
}

func shortest(words []string) int {
	n := len(words[0])
	for _, w := range words[1:] {
		n = min(n, len(w))
	}
	return n
}

// containsAny reports whether src contains one of words; nil words match
// everything.
func containsAny(src []byte, words []string) bool {
	for _, w := range words {
		if bytes.Contains(src, []byte(w)) {
			return true
		}
	}
	return words == nil
}

// inScope reports whether dir lies under scope's directories and under
// none of its "-" exclusions.
func inScope(dir, scope string) bool {
	in := false
	for _, s := range strings.Fields(scope) {
		ex := strings.HasPrefix(s, "-")
		s = strings.TrimPrefix(s, "-")
		if s == "." || dir == s || strings.HasPrefix(dir, s+"/") {
			if ex {
				return false
			}
			in = true
		}
	}
	return in
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
