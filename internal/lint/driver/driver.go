// Package driver runs the internal/lint analyzers under `go vet
// -vettool`. It reimplements, on the standard library alone, the slice
// of golang.org/x/tools/go/analysis/unitchecker protocol that the go
// command speaks to an external vet tool:
//
//	pollux-vet -V=full     describe the executable (for build caching)
//	pollux-vet -flags      describe flags as JSON (for go vet flag parsing)
//	pollux-vet foo.cfg     analyze one compilation unit described by the
//	                       JSON config the go command wrote
//
// plus a convenience mode: `pollux-vet ./...` re-execs `go vet
// -vettool=$0 ./...` so the tool is also directly runnable (flags such
// as -json are forwarded).
//
// The interprocedural analyzers exchange facts through the `.vetx`
// files the protocol plumbs: each unit decodes every dependency's fact
// table (cfg.PackageVetx) before analysis and serializes its own
// exported facts to cfg.VetxOutput after (lint.EncodeFacts — a
// deterministic encoding, so the go command's action cache stays
// stable). A missing or corrupt dependency fact file is a fatal driver
// error, never a silent empty table: diagnostics depend on those facts.
// VetxOnly units (dependencies vetted only for their facts) are fully
// analyzed with diagnostics suppressed — except standard-library units,
// which can never export pollux facts (the analyzers recognize their
// roots syntactically) and return an empty table immediately.
//
// After the per-analyzer passes, the driver reports stale directives:
// any //pollux: comment naming an unknown directive, or one whose
// analyzer ran and suppressed nothing through it (group name
// "staledirective"). Test-augmented units (ImportPath like "p [p.test]")
// skip this check — most analyzers deliberately ignore _test.go files,
// so directive use there is not meaningful.
package driver

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"go/version"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint"
)

// A config mirrors the JSON compilation-unit description the go command
// hands a vet tool (unitchecker.Config).
type config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	ModulePath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the pollux-vet entry point.
func Main(analyzers []*lint.Analyzer) {
	progname := filepath.Base(os.Args[0])
	log.SetFlags(0)
	log.SetPrefix(progname + ": ")

	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, `%[1]s enforces the repo's determinism, clock, and option-pattern invariants.

Usage:
	go vet -vettool=$(which %[1]s) ./...   # the supported invocation
	%[1]s ./...                            # shorthand for the above
	%[1]s help                             # list analyzers
	%[1]s unit.cfg                         # internal: invoked by go vet
`, progname)
		os.Exit(1)
	}

	flag.Var(versionFlag{}, "V", "print version and exit")
	printflags := flag.Bool("flags", false, "print analyzer flags in JSON")
	jsonOut := flag.Bool("json", false, "emit JSON output")
	_ = flag.Int("c", -1, "display offending line with this many lines of context (ignored)")
	flag.Parse()

	if *printflags {
		printFlags()
		os.Exit(0)
	}

	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
	}
	if args[0] == "help" {
		fmt.Printf("%s enforces determinism, clock, and option-pattern invariants.\n\nRegistered analyzers:\n\n", progname)
		for _, a := range analyzers {
			fmt.Printf("  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("\nSuppress a finding with //pollux:<directive> <reason> on the flagged line or the line above.\n")
		os.Exit(0)
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		runConfig(args[0], analyzers, *jsonOut)
		return
	}

	// Package patterns: re-exec through go vet, which knows how to load
	// and typecheck packages and call us back per compilation unit
	// (-json is forwarded; go vet hands it back on each invocation).
	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	vetArgs := []string{"vet", "-vettool=" + self}
	if *jsonOut {
		vetArgs = append(vetArgs, "-json")
	}
	cmd := exec.Command("go", append(vetArgs, args...)...)
	cmd.Stdout = os.Stdout
	if !*jsonOut {
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			if ee, ok := err.(*exec.ExitError); ok {
				os.Exit(ee.ExitCode())
			}
			log.Fatal(err)
		}
		return
	}

	// In -json mode the go command interleaves the per-unit JSON our .cfg
	// invocations print with "# <package>" progress headers, all on its
	// stderr. Machine readers want a clean JSON stream: keep the headers
	// on stderr and forward everything else to stdout.
	var vetStderr bytes.Buffer
	cmd.Stderr = &vetStderr
	runErr := cmd.Run()
	for _, line := range strings.Split(strings.TrimRight(vetStderr.String(), "\n"), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# ") {
			fmt.Fprintln(os.Stderr, line)
		} else {
			fmt.Fprintln(os.Stdout, line)
		}
	}
	if runErr != nil {
		if ee, ok := runErr.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		log.Fatal(runErr)
	}
}

// runConfig analyzes the single compilation unit described by cfgFile
// and exits: 0 clean, 1 findings, fatal on driver errors.
func runConfig(cfgFile string, analyzers []*lint.Analyzer, jsonOut bool) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	cfg := new(config)
	if err := json.Unmarshal(data, cfg); err != nil {
		log.Fatalf("cannot decode JSON config file %s: %v", cfgFile, err)
	}

	writeVetx := func(data []byte) {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, data, 0o666); err != nil {
				log.Fatalf("failed to write facts: %v", err)
			}
		}
	}
	// Standard-library units can never carry pollux facts: the analyzers
	// recognize their roots (time.Now, rand.Int, ...) syntactically at the
	// call site, and tainting through stdlib internals would misclassify
	// sanctioned entry points (rand.NewSource reaches the generator's
	// internals by construction). Stdlib units are the ones outside any
	// module (cfg.Standard only marks the unit's dependencies, never the
	// unit itself) and are only ever vetted for facts — skip the
	// parse/typecheck entirely and publish an empty table.
	if cfg.VetxOnly && cfg.ModulePath == "" {
		writeVetx(nil)
		os.Exit(0)
	}

	fset := token.NewFileSet()
	diags, facts, err := analyze(fset, cfg, analyzers)
	if err != nil {
		writeVetx(nil)
		if cfg.SucceedOnTypecheckFailure {
			os.Exit(0) // the compiler will report the real error
		}
		log.Fatal(err)
	}
	factData, err := lint.EncodeFacts(facts.Exported())
	if err != nil {
		log.Fatalf("encoding facts for %s: %v", cfg.ImportPath, err)
	}
	writeVetx(factData)
	if cfg.VetxOnly {
		// A dependency vetted only for its facts: diagnostics are the
		// target packages' business.
		os.Exit(0)
	}

	if jsonOut {
		printJSON(fset, cfg.ID, diags)
		os.Exit(0)
	}
	exit := 0
	for _, d := range diags {
		for _, diag := range d.diags {
			fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(diag.Pos), diag.Message)
			exit = 1
		}
	}
	os.Exit(exit)
}

type analyzerDiags struct {
	name  string
	diags []lint.Diagnostic
}

// importDepFacts decodes every dependency's .vetx fact table into a
// fresh store for the unit. Any unreadable or corrupt fact file is an
// error: silently analyzing without a dependency's facts would make
// findings appear and disappear with build-cache state.
func importDepFacts(cfg *config) (*lint.Facts, error) {
	facts := lint.NewFacts(cfg.ImportPath)
	paths := make([]string, 0, len(cfg.PackageVetx))
	for importPath := range cfg.PackageVetx {
		paths = append(paths, importPath)
	}
	sort.Strings(paths)
	for _, importPath := range paths {
		data, err := os.ReadFile(cfg.PackageVetx[importPath])
		if err != nil {
			return nil, fmt.Errorf("reading fact file for dependency %q: %v (stale go vet action cache? try go clean -cache)", importPath, err)
		}
		table, err := lint.DecodeFacts(data)
		if err != nil {
			return nil, fmt.Errorf("fact file for dependency %q: %v", importPath, err)
		}
		// Facts are looked up by the canonical package path objects report
		// (types.Package.Path), which for vendored/mapped imports is the
		// ImportMap target, not the source import path.
		pkgPath := importPath
		if mapped, ok := cfg.ImportMap[importPath]; ok {
			pkgPath = mapped
		}
		facts.AddImported(pkgPath, table)
	}
	return facts, nil
}

// analyze parses and typechecks the unit (types of dependencies come
// from the compiler export data the go command lists in cfg) and runs
// the analyzers over it, sharing one fact store and one directive
// registry across them. The returned store holds the unit's exported
// facts for serialization.
func analyze(fset *token.FileSet, cfg *config, analyzers []*lint.Analyzer) ([]analyzerDiags, *lint.Facts, error) {
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}

	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if importPath == "unsafe" {
			return types.Unsafe, nil
		}
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		return compilerImporter.Import(path)
	})

	tc := &types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: version.Lang(cfg.GoVersion),
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, nil, err
	}

	facts, err := importDepFacts(cfg)
	if err != nil {
		return nil, nil, err
	}
	dirs := lint.ScanDirectives(fset, files)

	var results []analyzerDiags
	for _, a := range analyzers {
		res := analyzerDiags{name: a.Name}
		pass := &lint.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Facts:     facts,
			Dirs:      dirs,
		}
		pass.Report = func(d lint.Diagnostic) { res.diags = append(res.diags, d) }
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("analyzer %s: %v", a.Name, err)
		}
		results = append(results, res)
	}

	// Stale-directive findings ride in their own group. Test-augmented
	// units re-analyze the base package's files with a different critical()
	// outcome (the ImportPath gains a " [p.test]" suffix), so every
	// directive would read unused there — skip those units.
	if !strings.Contains(cfg.ImportPath, " [") {
		if stale := lint.StaleDirectives(dirs, analyzers, lint.All()); len(stale) > 0 {
			results = append(results, analyzerDiags{name: "staledirective", diags: stale})
		}
	}
	return results, facts, nil
}

// printJSON emits the diagnostic tree go vet -json expects:
// {"pkgID": {"analyzer": [{"posn": ..., "message": ...}]}}.
func printJSON(fset *token.FileSet, pkgID string, diags []analyzerDiags) {
	type jsonDiag struct {
		Posn    string `json:"posn"`
		Message string `json:"message"`
	}
	byAnalyzer := map[string][]jsonDiag{}
	for _, d := range diags {
		for _, diag := range d.diags {
			byAnalyzer[d.name] = append(byAnalyzer[d.name], jsonDiag{
				Posn:    fset.Position(diag.Pos).String(),
				Message: diag.Message,
			})
		}
	}
	tree := map[string]map[string][]jsonDiag{pkgID: byAnalyzer}
	data, err := json.MarshalIndent(tree, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
	fmt.Println()
}

// printFlags answers `pollux-vet -flags`: the go command parses this to
// learn which command-line flags it may forward to the tool.
func printFlags() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	flag.VisitAll(func(f *flag.Flag) {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		flags = append(flags, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
	})
	data, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
}

// versionFlag implements the -V=full protocol: the go command hashes the
// reported build ID into its action cache key, so the output must change
// whenever the binary does.
type versionFlag struct{}

func (versionFlag) IsBoolFlag() bool { return true }
func (versionFlag) String() string   { return "" }
func (versionFlag) Set(s string) error {
	if s != "full" {
		log.Fatalf("unsupported flag value: -V=%s (use -V=full)", s)
	}
	prog, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(prog)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", prog, string(h.Sum(nil)))
	os.Exit(0)
	return nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
