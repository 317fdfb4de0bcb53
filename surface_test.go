package repro_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	benchmr "repro/internal/bench/multirate"
	benchrma "repro/internal/bench/rmamt"
	"repro/internal/core"
	"repro/internal/simnet"
)

// surface is one thing a user, a figure or another package can select: an
// Options field, a command-line flag, an example program.
type surface struct {
	name    string // as DESIGN's census spells it, e.g. "cmd/mpirun -poll"
	home    string // directory that defines it; a reader must live elsewhere
	mention string // regexp a reader must match to count as reading it
}

var flagCall = regexp.MustCompile(`^(String|Int|Int64|Uint|Uint64|Bool|Duration|Float64)(Var)?$`)

// flagSurfaces walks the non-test Go files of dir for flag registrations —
// flag.Int("n", ...) in a main, fs.BoolVar(&x, "n", ...) in the shared
// registrar — and names each "<label> -<flag>".
func flagSurfaces(t *testing.T, dir, label string) []surface {
	t.Helper()
	var out []surface
	inspect := func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		m := flagCall.FindStringSubmatch(sel.Sel.Name)
		if recv, ok := sel.X.(*ast.Ident); !ok || m == nil || (recv.Name != "flag" && recv.Name != "fs") {
			return true
		}
		arg := 0
		if m[2] == "Var" {
			arg = 1
		}
		lit, ok := call.Args[arg].(*ast.BasicLit)
		if !ok {
			t.Fatalf("%s: flag name of %s.%s is not a literal", dir, sel.X, sel.Sel.Name)
		}
		name, _ := strconv.Unquote(lit.Value)
		out = append(out, surface{
			name:    label + " -" + name,
			home:    dir + "/",
			mention: `(^|[^\w-])-` + regexp.QuoteMeta(name) + `($|[^\w-])`,
		})
		return true
	}
	inspectNonTest(t, dir, inspect)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// inspectNonTest walks the syntax of every non-test Go file of dir.
func inspectNonTest(t *testing.T, dir string, inspect func(ast.Node) bool) {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, inspect)
		}
	}
}

// reasonSurfaces walks internal/flight's non-test files for the Reason*
// string constants — every reason a verdict can carry — and names each
// "verdict <reason>". Its reader must spell the constant or the string.
func reasonSurfaces(t *testing.T) []surface {
	t.Helper()
	var out []surface
	inspectNonTest(t, "internal/flight", func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 || !strings.HasPrefix(vs.Names[0].Name, "Reason") {
			return true
		}
		if lit, ok := vs.Values[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			reason, _ := strconv.Unquote(lit.Value)
			out = append(out, surface{"verdict " + reason, "internal/flight/",
				`\b` + vs.Names[0].Name + `\b|"` + regexp.QuoteMeta(reason) + `"`})
		}
		return true
	})
	if len(out) == 0 {
		t.Fatal("internal/flight defines no Reason* constants")
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// makeRule returns the rule line and recipe of a Makefile target.
func makeRule(mk, target string) string {
	var rule string
	inRule := false
	for _, line := range strings.Split(mk, "\n") {
		if strings.HasPrefix(line, "\t") {
			if inRule {
				rule += line + "\n"
			}
			continue
		}
		targets, _, isRule := strings.Cut(line, ":")
		inRule = isRule && !strings.HasPrefix(line, "#") && !strings.Contains(targets, "=") &&
			strings.Contains(" "+targets+" ", " "+target+" ")
		if inRule {
			rule += line + "\n"
		}
	}
	return rule
}

// testSource returns the source text of one top-level function of a file.
func testSource(path, fn string) (string, bool) {
	src, err := os.ReadFile(path)
	if err != nil {
		return "", false
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, src, 0)
	if err != nil {
		return "", false
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == fn {
			return string(src[fset.Position(fd.Pos()).Offset:fset.Position(fd.End()).Offset]), true
		}
	}
	return "", false
}

// modelOnly names the simnet.Model fields that select a mechanism the
// runtime does not have: the IMPI Thread comparator's global lock, eager
// credits until the runtime ports flow control (ROADMAP item 15), and the two
// contention knobs the ablations sweep. The model runs only what the
// runtime runs; a field added to this list is a design argued for here.
var modelOnly = map[string]bool{"BigLock": true, "Credits": true, "SleepPenalty": true, "SendJitter": true}

// harnessConfigs are the configurations the model takes from the runtime's
// harnesses, and what the runtime itself is configured by: a simnet.Model
// field of the same name as one of theirs is a copy of it.
var harnessConfigs = []reflect.Type{
	reflect.TypeOf(benchmr.Config{}), reflect.TypeOf(benchrma.Config{}),
	reflect.TypeOf(core.Options{}), reflect.TypeOf(core.Info{}),
}

// classifyModelField checks the census row of simnet.Model field: it
// reads "model-only:", and the field is one of modelOnly. The harness's own
// configuration reaches the model as itself, so no row classifies a field
// as a copy of a flag.
func classifyModelField(field, what string) error {
	switch {
	case !strings.HasPrefix(strings.TrimSpace(what), "model-only:"):
		return fmt.Errorf("the row must classify it as model-only:")
	case !modelOnly[field]:
		return fmt.Errorf("model-only, but the runtime has no such mechanism: make it the runtime's or delete it")
	}
	return nil
}

// modelIgnores names the harness configuration fields the model neither
// reads nor refuses, each with the reason it may pass them by.
var modelIgnores = map[string]string{
	"multirate.Config.OnWorld": "a hook on the runtime's world; the model builds none",
	"rmamt.Config.OnWorld":     "a hook on the runtime's world; the model builds none",
	"rmamt.Config.SampleInterval": "the RMA model runs no sampler (its Result.Series stays empty); " +
		"cmd/rmamt's -sample-interval switches to the real engine, whose sampler reads it",
	"rmamt.Config.Watchdog": "the RMA model runs no sampler, so no detector; " +
		"on the real engine the world's one sampler reads it, as multirate's reads multirate.Config.Watchdog",
	"core.Options.Network":   "the runtime's transport; the model's wire is virtual (Faults is its adversary)",
	"core.Options.Telemetry": "the runtime's histograms; the model has no wall-clock layer to instrument",
	"core.Options.Profile":   "the runtime's profiler; the model's phase clocks always run (Result.Breakdown)",
}

// fieldsRead type-checks the non-test files of dir and returns every struct
// field some selector there reads, keyed "pkg.Type.Field" by the named type
// that declares it — so a field counts for its own type only, never for
// another configuration that happens to have a field of the same name. A
// field promoted through an embedded struct counts for the struct that
// declares it.
func fieldsRead(t *testing.T, dir string) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil || len(pkgs) != 1 {
		t.Fatalf("parse %s: %d packages, %v", dir, len(pkgs), err)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	// The imports come from the build cache's export data, as go vet reads
	// them: go list names each dependency's file.
	out, err := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}", "./"+dir).Output()
	if err != nil {
		t.Fatalf("go list %s: %v", dir, err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok {
			export[path] = file
		}
	}
	lookup := func(path string) (io.ReadCloser, error) { return os.Open(export[path]) }
	info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	if _, err := conf.Check(dir, fset, files, info); err != nil {
		t.Fatalf("type-check %s: %v", dir, err)
	}
	deref := func(typ types.Type) types.Type {
		if p, ok := typ.(*types.Pointer); ok {
			return p.Elem()
		}
		return typ
	}
	read := map[string]bool{}
	for _, sel := range info.Selections {
		if sel.Kind() != types.FieldVal {
			continue
		}
		// Follow the embedding path to the struct declaring the field.
		typ := deref(sel.Recv())
		path := sel.Index()
		for _, i := range path[:len(path)-1] {
			typ = deref(typ.Underlying().(*types.Struct).Field(i).Type())
		}
		named, ok := typ.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			continue
		}
		read[named.Obj().Pkg().Name()+"."+named.Obj().Name()+"."+sel.Obj().Name()] = true
	}
	return read
}

// TestModelTakesTheHarnessConfig: the model keeps only what the runtime
// has no mechanism for — no simnet.Model field copies a harness or runtime
// configuration field — and every field of the harnesses' configurations,
// Opts included, is read by the model (simnet.Validate's refusals count),
// or passed by on modelIgnores with a reason.
func TestModelTakesTheHarnessConfig(t *testing.T) {
	harness := map[string]string{}
	for _, typ := range harnessConfigs {
		for i := 0; i < typ.NumField(); i++ {
			harness[typ.Field(i).Name] = typ.String()
		}
	}
	model := reflect.TypeOf(simnet.Model{})
	for i := 0; i < model.NumField(); i++ {
		if f := model.Field(i).Name; harness[f] != "" {
			t.Errorf("simnet.Model.%s copies %s.%s: read the harness's field instead", f, harness[f], f)
		}
	}
	read := fieldsRead(t, "internal/simnet")
	for _, typ := range []reflect.Type{reflect.TypeOf(benchmr.Config{}), reflect.TypeOf(benchrma.Config{}), reflect.TypeOf(core.Options{})} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.String() + "." + typ.Field(i).Name
			switch {
			case read[f] && modelIgnores[f] != "":
				t.Errorf("%s: the model reads it; take it off modelIgnores", f)
			case !read[f] && modelIgnores[f] == "":
				t.Errorf("%s: the model neither reads nor refuses it; read it, refuse it in simnet.Validate, or add it to modelIgnores with a reason", f)
			}
		}
	}
}

// TestEverySurfaceHasAReader is the surface census: every core.Options field
// and core.Info assertion, every simnet.Model field, every flag of the six
// mains (and of the registrar two of them share), every example and every
// verdict reason has a row in DESIGN's "Surface census" appendix, and the
// reader that row names — a non-test file outside the defining package, a
// make target, a script, a CI step, a documented workflow, or for a
// deliberate test lever (or a reason's drill case) a named test — exists and
// mentions it. A surface nothing else reads has no row to write: it goes, or
// gains a real reader. A simnet.Model row also classifies its field (see
// classifyModelField).
func TestEverySurfaceHasAReader(t *testing.T) {
	var surfaces []surface
	for _, typ := range []reflect.Type{reflect.TypeOf(core.Options{}), reflect.TypeOf(core.Info{})} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i).Name
			surfaces = append(surfaces, surface{"core." + typ.Name() + "." + f, "internal/core/", `\b` + f + `\b`})
		}
	}
	model := reflect.TypeOf(simnet.Model{})
	for i := 0; i < model.NumField(); i++ {
		f := model.Field(i).Name
		surfaces = append(surfaces, surface{"simnet.Model." + f, "internal/simnet/", `\b` + f + `\b`})
	}
	mains, err := filepath.Glob("cmd/*")
	if err != nil || len(mains) != 6 {
		t.Fatalf("cmd/* = %v (%v), want the six mains", mains, err)
	}
	for _, dir := range mains {
		surfaces = append(surfaces, flagSurfaces(t, dir, dir)...)
	}
	surfaces = append(surfaces, flagSurfaces(t, "internal/bench/cliobs", "cliobs")...)
	examples, _ := filepath.Glob("examples/*")
	for _, dir := range examples {
		surfaces = append(surfaces, surface{dir, dir + "/", `\b` + filepath.Base(dir) + `\b`})
	}
	surfaces = append(surfaces, reasonSurfaces(t)...)

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	body, appendix, found := strings.Cut(string(design), "\n## Appendix: Surface census\n")
	if !found {
		t.Fatal(`DESIGN.md has no "## Appendix: Surface census"`)
	}
	row := regexp.MustCompile("(?m)^\\| `([^`]+)` \\| `([^`]+)` \\|(.*)$")
	readers := map[string]string{}
	whats := map[string]string{}
	for _, m := range row.FindAllStringSubmatch(appendix, -1) {
		if _, dup := readers[m[1]]; dup {
			t.Errorf("census lists %s twice", m[1])
		}
		readers[m[1]] = m[2]
		whats[m[1]] = m[3]
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}

	for _, s := range surfaces {
		reader, ok := readers[s.name]
		delete(readers, s.name)
		if !ok {
			t.Errorf("%s has no row in DESIGN's surface census: name what reads it, or delete it", s.name)
			continue
		}
		if field, isModel := strings.CutPrefix(s.name, "simnet.Model."); isModel {
			if err := classifyModelField(field, whats[s.name]); err != nil {
				t.Errorf("%s: %v", s.name, err)
			}
		}
		var text string
		path, fn, isTest := strings.Cut(reader, ":")
		switch target, isMake := strings.CutPrefix(reader, "make "); {
		case isMake:
			if text = makeRule(string(mk), target); text == "" {
				t.Errorf("%s: the Makefile has no target %q", s.name, target)
				continue
			}
		case isTest:
			if !strings.HasSuffix(path, "_test.go") {
				t.Errorf("%s: reader %s names a function of a non-test file", s.name, reader)
				continue
			}
			if text, ok = testSource(path, fn); !ok {
				t.Errorf("%s: no test %s in %s", s.name, fn, path)
				continue
			}
		case strings.HasSuffix(reader, "_test.go"):
			t.Errorf("%s: a test file reads it only through a named test (%s:TestName)", s.name, reader)
			continue
		case strings.HasPrefix(reader, s.home):
			t.Errorf("%s: reader %s is the package that defines it", s.name, reader)
			continue
		case reader == "DESIGN.md":
			text = body // the census does not count as its own reader
		default:
			b, err := os.ReadFile(reader)
			if err != nil {
				t.Errorf("%s: reader: %v", s.name, err)
				continue
			}
			text = string(b)
		}
		if !regexp.MustCompile(s.mention).MatchString(text) {
			t.Errorf("%s: reader %s does not mention it", s.name, reader)
		}
	}
	stale := make([]string, 0, len(readers))
	for name := range readers {
		stale = append(stale, name)
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("census row %s names a surface that no longer exists", name)
	}
}
