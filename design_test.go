package isla

// TestDesign keeps the paper's system (pre-estimation, calculation and
// summarization over blocks) in one copy. It parses the module's sources
// with go/parser and checks four kinds of rule:
//
//  1. layering: every package of the module and every import it makes of
//     another is listed in the layering table;
//  2. singletons: the declarations a second copy would have to repeat (the
//     planned phase request, the experiment list, the block source, the
//     worker's RPC surface, the answer's shape) exist once;
//  3. exported names: every exported top-level name under internal/ has a
//     reference from non-test code outside its own declaration;
//  4. residual patterns: the deleted forms no rule above expresses, one row
//     each with the reason they went.
//
// A failure names its rule. To change a rule on purpose, edit its table.
// `go test -run Design -v .` also logs the exported names that only
// ./benchmark still uses.

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"regexp/syntax"
	"sort"
	"strconv"
	"strings"
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
	"internal/baseline":   "block leverage stats",
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

// residual holds the deleted forms that no rule above expresses: a pattern
// matched against each line of the non-test Go files under scope
// (space-separated directories, "." the module, a leading "-" excluding one).
var residual = []struct{ pattern, scope, reason string }{
	{`Remote\(`, "internal/core", "the estimation pipeline exists once; a ...Remote( function is a second copy run over workers"},
	{`type Coordinator struct|func NewCoordinator\(|func \(c \*Coordinator\) Run`, "internal/cluster", "the transport is configured through NewShardTable's arguments and serves core's phases; an exported coordinator is a second way in and a second pipeline"},
	{`type Faults struct`, "internal/cluster", "the transport fault harness lives in cluster's tests"},
	{`PredFilter\(|func FilterChunk\(|func SampleFilteredChunks\(|\) Sample\(r \*stats\.RNG, m int64|\) SampleFilteredInterval\(`, ".", "a filter has one form, the compiled interval, and a block one sampling method, SampleInto; the closure filter and the scalar sampler live on as test oracles only"},
	{`group\.Options|func Aggregate\(`, ".", "GROUP BY has one executor, the engine's; group.Aggregate and its options are a fork"},
	{`SetGroupExactThreshold|DisablePruning`, ".", "the small-group size is one engine constant, and pruning never moves an answer bit (tests compare against a summary-less copy)"},
	{`func genStore`, ".", "workload.FromSpec is the one table-spec grammar"},
	{`func (EstimateContext|EstimateParallel|EstimateParallelContext|EstimateTimeBoundContext)\(`, ".", "Estimate and EstimateTimeBound take a context and parallel is Workers = -1; a Context or Parallel twin is a second entry point"},
	{`\b(RelaxFactor|LevelWeight|PilotPerBlock)\b`, ".", "settings that only ever held the paper's fixed values are constants in core and extreme"},
	{`\bBalanceBand\b *[^: ]`, ". -internal/modulate", "the balance band is core's constant; modulate.Options keeps the field core fills from it"},
	{`reidBlock`, ".", "a grouped table has one block numbering and one quarantine set; a renumbering block wrapper is a second namespace"},
	{`perTable`, ".", "the engine's per-table query counts live in the metrics registry only"},
	{`\b(runIID|PlanIID|PreEstimate|routeIID|planCache|PerBlockBounds)\b`, ".", "every unfiltered ISLA caller freezes the per-block pilot and resumes it; a store-typed i.i.d. pipeline, its route, capability or knob is a second estimator"},
	{`RunBlock\(|exec\.Budget|ErrBudgetExceeded`, ".", "a source returns fresh power sums and PhaseReq.Reply merges and resolves them; a per-block RunBlock or exec sink machinery is a second calculation"},
	{`\bWithTimeBudget\(`, ".", "ParseWithTimeBudget lets validate judge an injected budget; Query.WithTimeBudget is a second validator"},
	{`^\s+AllowPartial\s`, "internal/cluster", "a query degrades under its own core.Config.AllowPartial; a transport switch is a second one"},
	{`type partial struct`, "internal/engine", "one answer has one type, engine.Answer, from route to wire"},
	{`^\s+PilotCached\s`, "internal/core", "whether the plan cache served the pilot is route state; it is the engine's, not the estimator's"},
	{`Detail\s+\*core\.Result`, "internal/engine", "an answer is O(1); per-block partials go to a destination the caller passes"},
	{`ClusterFaults`, ".", "fault injection lives in cluster's tests; the facade's switch had no production caller"},
	{`quotaLens`, ".", "the filtered pipeline refuses down blocks; planning quotas around them is a silent degradation"},
	{`make\(chan item|pending := make\(map`, "internal/exec", "exec.Run writes each result in place on its workers; a collector is per-phase garbage"},
	{`FixedSamples|SamplesPerSecond|CoveredBlocks|func calibrate\(|type budgeted struct`, ".", "a time-bound run is an online session's rounds against a deadline; a calibration burst, a block-prefix cutoff or their knobs are a second time-bound loop"},
	{`FilterPilotBlock|FilterCalcBlock|FilterCalcRep|type FilterReq struct|^\s+Filter(Values|Sample)\s+\[\]|func \([^)]*\) Filter(Pilot|Calc)\(`, ".", "a filtered phase is moments requests under a filter; per-kind filtered functions, types, methods or batch slices are a second phase kind"},
	{`\b(FilterArgs|FilterValuesReply|FilterSampleReply|PilotStateArgs|PilotStateReply|SampleArgs|SampleReply)\{`, "internal cmd", "retired wire types, declared only for the benchmark's gob probe; PhaseArgs and PhaseReply are the one item pair"},
	{`"[^"]*time-budgeted runs`, "internal/engine", "every sampling route runs over a core.BlockSource, shards included; refusing time-budgeted runs there is a second execution surface"},
	{`SummaryCRC|SummaryChecksum|func \([^)]*\) Checksum\(\)`, ".", "a table version is its name and catalog generation; a checksum is a second fingerprint"},
	{`func runCluster\(`, "cmd/islacli", "-cluster is a tableflags source, so the command loads through the shared layers"},
	{`[(,] *"(dist|mu|sigma|gamma|lo|hi)",`, "cmd/datagen", "datagen takes -gen, workload.FromSpec's grammar"},
}

// srcFile is one parsed Go file of the module.
type srcFile struct {
	path string // slash-separated, relative to the module root
	dir  string // its package directory, "." for the root
	test bool
	src  []byte
	ast  *ast.File
}

func TestDesign(t *testing.T) {
	fset := token.NewFileSet()
	var files []*srcFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, &srcFile{
			path: filepath.ToSlash(path),
			dir:  filepath.ToSlash(filepath.Dir(path)),
			test: strings.HasSuffix(name, "_test.go"),
			src:  src,
			ast:  f,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var prod []*srcFile
	for _, f := range files {
		if !f.test {
			prod = append(prod, f)
		}
	}
	t.Run("layering", func(t *testing.T) { checkLayering(t, files) })
	t.Run("singletons", func(t *testing.T) { checkSingletons(t, fset, prod) })
	t.Run("exported", func(t *testing.T) { checkExported(t, prod) })
	t.Run("residual", func(t *testing.T) { checkResidual(t, prod) })
}

// importedDir maps a module import path to its package directory, "" for a
// path outside the module.
func importedDir(path string) string {
	if path == "isla" {
		return "."
	}
	if rest, ok := strings.CutPrefix(path, "isla/"); ok {
		return rest
	}
	return ""
}

func checkLayering(t *testing.T, files []*srcFile) {
	got := map[string]map[string]bool{}
	for _, f := range files {
		if got[f.dir] == nil {
			got[f.dir] = map[string]bool{}
		}
		if f.test {
			continue
		}
		for _, imp := range f.ast.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			dir := importedDir(p)
			switch {
			case dir == "":
				continue
			case dir == ".":
				got[f.dir]["isla"] = true
			default:
				got[f.dir][strings.TrimPrefix(dir, "internal/")] = true
			}
		}
	}
	for _, dir := range sortedKeys(got) {
		want, ok := layering[dir]
		if !ok {
			t.Errorf("layering: package %s is not in the layering table; a new package is a deliberate edit of the table (a second copy of a deleted one, such as internal/online, timebound, sample, load or bench, is not)", dir)
			continue
		}
		allowed := map[string]bool{}
		for _, p := range strings.Fields(want) {
			allowed[p] = true
		}
		for _, p := range sortedKeys(got[dir]) {
			if !allowed[p] {
				t.Errorf("layering: %s imports %s, an edge the layering table does not list", dir, p)
			}
		}
		for _, p := range sortedKeys(allowed) {
			if !got[dir][p] {
				t.Errorf("layering: the table lets %s import %s, which it no longer does; drop the edge", dir, p)
			}
		}
	}
	for _, dir := range sortedKeys(layering) {
		if got[dir] == nil {
			t.Errorf("layering: the table lists %s, which holds no Go files; drop its row", dir)
		}
	}
	if bench, _ := filepath.Glob("BENCH_*.json"); len(bench) > 0 {
		t.Errorf("layering: %v: ./benchmark is the one performance harness and keeps its own results", bench)
	}
}

// typeName is the name of a type expression T, *T, pkg.T or T[...], or "".
func typeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	}
	return ""
}

// recvName is the base type name of a method's receiver, or "" for a function.
func recvName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	return typeName(d.Recv.List[0].Type)
}

// typeSpecs returns the non-test type declarations named name in dir.
func typeSpecs(files []*srcFile, dir, name string) []*ast.TypeSpec {
	var out []*ast.TypeSpec
	for _, f := range files {
		if f.dir != dir {
			continue
		}
		for _, d := range f.ast.Decls {
			if g, ok := d.(*ast.GenDecl); ok {
				for _, s := range g.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.Name == name {
						out = append(out, ts)
					}
				}
			}
		}
	}
	return out
}

func checkSingletons(t *testing.T, fset *token.FileSet, prod []*srcFile) {
	// One calculation round: core's Plan.request builds every planned
	// request; a query, an online Refine and a time-bound round all run it.
	var planned, lists []string
	for _, f := range prod {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			switch lt := lit.Type.(type) {
			case *ast.ArrayType:
				if typeName(lt.Elt) == "Experiment" {
					lists = append(lists, fset.Position(lit.Pos()).String())
				}
			case *ast.MapType:
				if typeName(lt.Value) == "Experiment" {
					lists = append(lists, fset.Position(lit.Pos()).String())
				}
			}
			if typeName(lit.Type) != "PhaseReq" {
				return true
			}
			for _, e := range lit.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok && typeName(kv.Key) == "Plan" {
					planned = append(planned, fset.Position(lit.Pos()).String())
				}
			}
			return true
		})
	}
	if len(planned) != 1 {
		t.Errorf("singletons: %d non-test PhaseReq literals set a Plan %v, want 1: every calculation round is core's one round", len(planned), planned)
	}

	// One experiment list: internal/repro's Experiments.
	var vars []string
	for _, f := range prod {
		if f.dir != "internal/repro" {
			continue
		}
		for _, d := range f.ast.Decls {
			if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.VAR {
				for _, s := range g.Specs {
					for _, n := range s.(*ast.ValueSpec).Names {
						vars = append(vars, n.Name)
					}
				}
			}
		}
	}
	if len(lists) != 1 || len(vars) != 1 || vars[0] != "Experiments" {
		t.Errorf("singletons: experiment lists at %v and internal/repro variables %v, want one list, repro.Experiments: the paper's experiments are listed once", lists, vars)
	}

	// One execution surface: core declares one interface, BlockSource, and
	// a phase has one method.
	var ifaces []string
	for _, f := range prod {
		if f.dir != "internal/core" {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if _, ok := ts.Type.(*ast.InterfaceType); ok {
					ifaces = append(ifaces, ts.Name.Name)
				}
			}
			return true
		})
	}
	if strings.Join(ifaces, " ") != "BlockSource" {
		t.Errorf("singletons: internal/core declares interfaces %v, want only BlockSource: every sampling route runs over a block source", ifaces)
	}
	for _, ts := range typeSpecs(prod, "internal/core", "BlockSource") {
		var methods []string
		if it, ok := ts.Type.(*ast.InterfaceType); ok {
			for _, m := range it.Methods.List {
				for _, n := range m.Names {
					methods = append(methods, n.Name)
				}
				if len(m.Names) == 0 {
					methods = append(methods, typeName(m.Type))
				}
			}
		}
		sort.Strings(methods)
		if got := strings.Join(methods, " "); got != "Down Layout Phase Summary TotalLen" {
			t.Errorf("singletons: core.BlockSource has methods %s, want Down Layout Phase Summary TotalLen: a phase has one method and one request type", got)
		}
	}

	// One RPC surface: a worker answers Batch and Info; exported per-block
	// handlers (PilotState, FilterValues, FilterSample, Sample) or its own
	// Pilot are a second one.
	var rpcs []string
	for _, f := range prod {
		if f.dir != "internal/cluster" {
			continue
		}
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && recvName(fd) == "Worker" && fd.Name.IsExported() && rpcShaped(fd.Type) {
				rpcs = append(rpcs, fd.Name.Name)
			}
		}
	}
	sort.Strings(rpcs)
	if got := strings.Join(rpcs, " "); got != "Batch Info" {
		t.Errorf("singletons: cluster.Worker's RPC methods are %s, want Batch Info: a worker serves phases through Batch", got)
	}

	// An answer is O(1): per-block partials reach only a caller that passes
	// EstimateFrozen or EstimateFilteredFrozen a destination.
	for _, a := range []struct{ dir, name string }{
		{"internal/core", "Result"}, {"internal/core", "FilteredResult"}, {"internal/engine", "Answer"},
	} {
		for _, ts := range typeSpecs(prod, a.dir, a.name) {
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			for _, fl := range st.Fields.List {
				switch fl.Type.(type) {
				case *ast.ArrayType, *ast.MapType:
					t.Errorf("singletons: %s.%s has a slice or map field at %s: an answer is O(1), per-block partials go to a destination the caller passes", a.dir, a.name, fset.Position(fl.Pos()))
				}
			}
		}
	}
}

// rpcShaped reports whether a method has net/rpc's shape: (args T, reply
// *R) error.
func rpcShaped(ft *ast.FuncType) bool {
	if ft.Results == nil || len(ft.Results.List) != 1 || typeName(ft.Results.List[0].Type) != "error" {
		return false
	}
	var params []ast.Expr
	for _, p := range ft.Params.List {
		for range max(1, len(p.Names)) {
			params = append(params, p.Type)
		}
	}
	if len(params) != 2 {
		return false
	}
	_, ptr := params[1].(*ast.StarExpr)
	return ptr
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

func checkExported(t *testing.T, prod []*srcFile) {
	decls := map[string]map[string]*exported{} // dir → name → declaration
	declare := func(dir, name string, lo, hi token.Pos) {
		if !ast.IsExported(name) {
			return
		}
		if decls[dir] == nil {
			decls[dir] = map[string]*exported{}
		}
		e := decls[dir][name]
		if e == nil {
			e = &exported{refs: map[string]bool{}}
			decls[dir][name] = e
		}
		e.spans = append(e.spans, [2]token.Pos{lo, hi})
	}
	for _, f := range prod {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if r := recvName(d); r != "" {
					declare(f.dir, r, d.Pos(), d.End())
				} else {
					declare(f.dir, d.Name.Name, d.Pos(), d.End())
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declare(f.dir, s.Name.Name, s.Pos(), s.End())
					case *ast.ValueSpec:
						for _, n := range s.Names {
							declare(f.dir, n.Name, s.Pos(), s.End())
						}
					}
				}
			}
		}
	}
	for _, f := range prod {
		imports := map[string]string{}
		for _, imp := range f.ast.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			dir := importedDir(p)
			if dir == "" {
				continue
			}
			name := filepath.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = dir
		}
		own := decls[f.dir]
		var walk func(n ast.Node) bool
		visit := func(n ast.Node) {
			if n != nil {
				ast.Inspect(n, walk)
			}
		}
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						if e := decls[dir][n.Sel.Name]; e != nil {
							e.refs[f.dir] = true
						}
						return false
					}
				}
				visit(n.X) // n.Sel is a field or method
				return false
			case *ast.Ident:
				if e := own[n.Name]; e != nil && !e.inside(n.Pos()) {
					e.refs[f.dir] = true
				}
			case *ast.Field: // its names are fields or parameters
				visit(n.Type)
				return false
			case *ast.FuncDecl: // a method's receiver does not keep its type alive
				visit(n.Type)
				if n.Body != nil {
					visit(n.Body)
				}
				return false
			case *ast.TypeSpec:
				if n.TypeParams != nil {
					visit(n.TypeParams)
				}
				visit(n.Type)
				return false
			case *ast.ValueSpec:
				visit(n.Type)
				for _, v := range n.Values {
					visit(v)
				}
				return false
			case *ast.CompositeLit: // a key is a field name unless the literal is a map's
				visit(n.Type)
				_, isMap := n.Type.(*ast.MapType)
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if _, ident := kv.Key.(*ast.Ident); !ident || isMap {
							visit(kv.Key)
						}
						visit(kv.Value)
					} else {
						visit(el)
					}
				}
				return false
			}
			return true
		}
		visit(f.ast)
	}

	var dead, benchOnly []string
	for _, dir := range sortedKeys(decls) {
		for _, name := range sortedKeys(decls[dir]) {
			e := decls[dir][name]
			id := dir + "." + name
			_, hook := testHooks[id]
			switch {
			case len(e.refs) == 0 && !hook:
				dead = append(dead, id)
			case len(e.refs) > 0 && hook:
				t.Errorf("exported: %s has a non-test reference now; drop it from testHooks", id)
			case len(e.refs) == 1 && e.refs["benchmark"]:
				benchOnly = append(benchOnly, id)
			}
		}
	}
	for _, id := range dead {
		t.Errorf("exported: %s has no reference from non-test code outside its declaration; delete it, unexport it, or move it into the tests that use it", id)
	}
	for _, id := range sortedKeys(testHooks) {
		dir, name, _ := strings.Cut(id, ".")
		if decls[dir][name] == nil {
			t.Errorf("exported: test hook %s is gone; drop it from testHooks", id)
		}
	}
	t.Logf("exported names only ./benchmark keeps alive: %s", strings.Join(benchOnly, " "))
}

func checkResidual(t *testing.T, prod []*srcFile) {
	for _, row := range residual {
		re := regexp.MustCompile(row.pattern)
		parsed, _ := syntax.Parse(row.pattern, syntax.Perl)
		words := needles(parsed)
		for _, f := range prod {
			if !inScope(f.dir, row.scope) || !containsAny(f.src, words) {
				continue
			}
			for n, line := range strings.Split(string(f.src), "\n") {
				if m := re.FindString(line); m != "" {
					t.Errorf("residual: %s:%d matches %q: %s", f.path, n+1, m, row.reason)
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
