// Command pollux-vet is the repo's custom vet multichecker: it runs the
// internal/lint analyzers that mechanically enforce the determinism,
// clock, and option-pattern invariants the exhibit baselines rest on.
//
// Three analyzers are package-local — detmap, zerodefault, floateq — and
// three are interprocedural, exchanging serialized facts across package
// boundaries through the unitchecker protocol's .vetx files: clocktaint
// (wall-clock/global-rand use, direct or transitive), rngescape
// (*rand.Rand handed to another goroutine, at the spawn or through
// helper parameters), and aliasret (mutex-guarded map/slice/pointer
// fields returned without a copy). All six always run. The driver also
// reports stale //pollux: directives that no longer suppress anything.
//
// CI runs it as
//
//	go build -o bin/pollux-vet ./cmd/pollux-vet
//	go vet -vettool=bin/pollux-vet ./...
//
// and `pollux-vet ./...` is shorthand for the same; `pollux-vet -json
// ./...` emits one {"pkgID": {"analyzer": [{posn, message}]}} JSON
// object per compilation unit on stdout for machine consumers. See
// docs/architecture.md, "Determinism invariants and lint".
package main

import (
	"repro/internal/lint"
	"repro/internal/lint/driver"
)

func main() {
	driver.Main(lint.All())
}
