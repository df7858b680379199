package lint

// Cross-package facts, in the model of golang.org/x/tools/go/analysis
// facts: an analyzer running on package P may attach serializable facts
// to P's functions, parameters, and struct fields; when a downstream
// package Q (analyzed later — the unitchecker protocol vets the import
// DAG bottom-up) resolves one of those objects through P's export data,
// it can look the facts up again. The driver persists each package's
// exported facts in the `.vetx` file the go command already plumbs
// between compilation units (internal/lint/driver), so modular analysis
// composes across packages exactly like compilation does.
//
// Objects are keyed by strings derived from their export-data identity
// (package path + a kind-tagged object key, see FuncKey/ParamKey/
// FieldKey) rather than by types.Object pointers: the importing package
// materializes fresh objects from export data, so pointer identity
// cannot survive the package boundary but names do.
//
// Encoding is gob, and deliberately deterministic: entries are sorted by
// object key and, within a key, by concrete fact type, so a package's
// `.vetx` bytes are a pure function of its facts. That keeps the go
// command's action cache stable and makes `.vetx` files diffable when
// debugging an analyzer.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
	"sort"
)

// A Fact is a serializable observation about one object, exported by the
// analyzer that computed it and importable wherever the object is
// resolved through export data. Implementations must be pointers to
// gob-encodable structs registered in AllFactTypes.
type Fact interface {
	// AFact is a marker method: it keeps arbitrary types from satisfying
	// the interface by accident.
	AFact()
}

// AllFactTypes returns one zero value of every registered fact type.
// DecodeFacts can only materialize types listed here (they are gob-
// registered in init), and the facts test suite round-trips each one.
func AllFactTypes() []Fact {
	return []Fact{
		&ClockTaintFact{},
		&RngEscapeFact{},
		&GuardedFieldFact{},
	}
}

func init() {
	for _, f := range AllFactTypes() {
		gob.Register(f)
	}
}

// FuncKey returns the fact key for a package-level function or a method
// on a named type. ok is false for objects facts cannot name across
// packages (interface methods resolve per concrete implementation;
// closures have no object at all).
func FuncKey(fn *types.Func) (string, bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	recv := sig.Recv()
	if recv == nil {
		return "func " + fn.Name(), true
	}
	named := namedOf(recv.Type())
	if named == nil {
		return "", false
	}
	if _, isIface := named.Underlying().(*types.Interface); isIface {
		return "", false
	}
	return "method (" + named.Obj().Name() + ")." + fn.Name(), true
}

// ParamKey returns the fact key for the i'th parameter of fn.
func ParamKey(fn *types.Func, i int) (string, bool) {
	k, ok := FuncKey(fn)
	if !ok {
		return "", false
	}
	return fmt.Sprintf("param %s#%d", k, i), true
}

// FieldKey returns the fact key for field fieldName of the named struct
// type typeName.
func FieldKey(typeName, fieldName string) string {
	return "field " + typeName + "." + fieldName
}

// namedOf strips pointers and returns the named type underneath, or nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// Facts is one compilation unit's view of the fact space: the decoded
// fact tables of every dependency, plus the facts the current unit's
// analyzers have exported so far (intra-package lookups go through the
// same store, so an analyzer handles local and imported callees
// uniformly).
type Facts struct {
	self     string // current package path
	imported map[string]map[string][]Fact
	exported map[string][]Fact
}

// NewFacts creates an empty store for the package at selfPath.
func NewFacts(selfPath string) *Facts {
	return &Facts{
		self:     selfPath,
		imported: map[string]map[string][]Fact{},
		exported: map[string][]Fact{},
	}
}

// AddImported installs a dependency package's decoded fact table.
func (fs *Facts) AddImported(pkgPath string, facts map[string][]Fact) {
	fs.imported[pkgPath] = facts
}

// Export records fact under key for the current package, replacing any
// previously exported fact of the same concrete type (one fact per
// concrete type per object — the fixpoint loops in the interprocedural
// analyzers refine in place).
func (fs *Facts) Export(key string, fact Fact) {
	t := reflect.TypeOf(fact)
	for i, f := range fs.exported[key] {
		if reflect.TypeOf(f) == t {
			fs.exported[key][i] = fact
			return
		}
	}
	fs.exported[key] = append(fs.exported[key], fact)
}

// Lookup finds a fact of out's concrete type attached to key in pkgPath
// (the current package's exported facts when pkgPath is the self path)
// and copies it into out.
func (fs *Facts) Lookup(pkgPath, key string, out Fact) bool {
	var table map[string][]Fact
	if pkgPath == fs.self {
		table = fs.exported
	} else {
		table = fs.imported[pkgPath]
	}
	t := reflect.TypeOf(out)
	for _, f := range table[key] {
		if reflect.TypeOf(f) == t {
			reflect.ValueOf(out).Elem().Set(reflect.ValueOf(f).Elem())
			return true
		}
	}
	return false
}

// Exported returns the current package's fact table for serialization.
func (fs *Facts) Exported() map[string][]Fact {
	return fs.exported
}

// vetxVersion guards the .vetx wire format: a mismatch means the file
// was written by an incompatible pollux-vet and must not be trusted.
const vetxVersion = 1

type vetxEntry struct {
	Key   string
	Facts []Fact
}

type vetxPayload struct {
	Version int
	Entries []vetxEntry
}

// EncodeFacts serializes a fact table deterministically: entries sorted
// by object key, facts within a key sorted by concrete type name. A
// package with no facts encodes to zero bytes — the same empty file the
// pre-facts driver wrote, so old and new `.vetx` files interoperate.
func EncodeFacts(facts map[string][]Fact) ([]byte, error) {
	if len(facts) == 0 {
		return nil, nil
	}
	keys := make([]string, 0, len(facts))
	for k := range facts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	payload := vetxPayload{Version: vetxVersion}
	for _, k := range keys {
		fs := append([]Fact(nil), facts[k]...)
		sort.Slice(fs, func(i, j int) bool {
			return fmt.Sprintf("%T", fs[i]) < fmt.Sprintf("%T", fs[j])
		})
		payload.Entries = append(payload.Entries, vetxEntry{Key: k, Facts: fs})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		return nil, fmt.Errorf("encoding facts: %v", err)
	}
	return buf.Bytes(), nil
}

// DecodeFacts parses a .vetx fact table. Zero-length input is a valid
// empty table (stdlib units and fact-free packages); anything else must
// decode exactly, so a truncated or corrupt dependency file surfaces as
// an error instead of silently dropping facts.
func DecodeFacts(data []byte) (map[string][]Fact, error) {
	if len(data) == 0 {
		return map[string][]Fact{}, nil
	}
	var payload vetxPayload
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&payload); err != nil {
		return nil, fmt.Errorf("decoding facts: %v", err)
	}
	if payload.Version != vetxVersion {
		return nil, fmt.Errorf("facts version %d, want %d (rebuilt pollux-vet against a stale build cache?)", payload.Version, vetxVersion)
	}
	m := make(map[string][]Fact, len(payload.Entries))
	for _, e := range payload.Entries {
		m[e.Key] = e.Facts
	}
	return m, nil
}

// ExportFuncFact attaches fact to fn, which must belong to the current
// package.
func (p *Pass) ExportFuncFact(fn *types.Func, fact Fact) {
	if k, ok := FuncKey(fn); ok {
		p.facts.Export(k, fact)
	}
}

// FuncFact copies the fact of out's type attached to fn (local or
// imported) into out.
func (p *Pass) FuncFact(fn *types.Func, out Fact) bool {
	k, ok := FuncKey(fn)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return p.facts.Lookup(fn.Pkg().Path(), k, out)
}

// ExportParamFact attaches fact to fn's i'th parameter.
func (p *Pass) ExportParamFact(fn *types.Func, i int, fact Fact) {
	if k, ok := ParamKey(fn, i); ok {
		p.facts.Export(k, fact)
	}
}

// ParamFact copies the fact of out's type attached to fn's i'th
// parameter into out.
func (p *Pass) ParamFact(fn *types.Func, i int, out Fact) bool {
	k, ok := ParamKey(fn, i)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return p.facts.Lookup(fn.Pkg().Path(), k, out)
}

// ExportFieldFact attaches fact to field fieldName of the current
// package's named struct type typeName.
func (p *Pass) ExportFieldFact(typeName, fieldName string, fact Fact) {
	p.facts.Export(FieldKey(typeName, fieldName), fact)
}

// FieldFact copies the fact of out's type attached to field fieldName of
// pkg's named struct type typeName into out.
func (p *Pass) FieldFact(pkg *types.Package, typeName, fieldName string, out Fact) bool {
	if pkg == nil {
		return false
	}
	return p.facts.Lookup(pkg.Path(), FieldKey(typeName, fieldName), out)
}
