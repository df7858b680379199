// Package aliasret checks guarded-field facts across the package
// boundary: aliasstate exported the facts, and accessors written here —
// where the struct's mutex is just another field of an imported type —
// are held to the same copy discipline.
package aliasret

import "aliasstate"

// Flagged: returning or shallow-copying imported guarded state.

func leakRows(t *aliasstate.Table) map[string][]int {
	return t.Rows // want `returning mutex-guarded field aliasstate\.Table\.Rows \(guarded by "Mu"\) without a copy`
}

func leakLimits(t *aliasstate.Table) []int {
	return t.Limits // want `returning mutex-guarded field aliasstate\.Table\.Limits`
}

func shallowClone(t *aliasstate.Table) map[string][]int {
	t.Mu.Lock()
	defer t.Mu.Unlock()
	out := make(map[string][]int, len(t.Rows))
	for k, row := range t.Rows {
		out[k] = row // want `storing "row" uncopied while ranging mutex-guarded field aliasstate\.Table\.Rows`
	}
	return out
}

func shareLedgerRows(l *aliasstate.Ledger, names []string) [][]int {
	l.Mu.Lock()
	defer l.Mu.Unlock()
	var out [][]int
	for _, name := range names {
		if p := l.Entries[name]; p != nil {
			out = append(out, p.Row) // want `storing "p\.Row" uncopied after reading an element of mutex-guarded field aliasstate\.Ledger\.Entries`
		}
	}
	return out
}

// Allowed: the deep-copy idioms.

func deepClone(t *aliasstate.Table) map[string][]int {
	t.Mu.Lock()
	defer t.Mu.Unlock()
	out := make(map[string][]int, len(t.Rows))
	for k, row := range t.Rows {
		out[k] = append([]int(nil), row...)
	}
	return out
}

func copyLimits(t *aliasstate.Table) []int {
	t.Mu.Lock()
	defer t.Mu.Unlock()
	return append([]int(nil), t.Limits...)
}

// Allowed: unguarded structs carry no facts.

func unguarded(u *aliasstate.Unguarded) map[string][]int {
	return u.Rows
}

// Justified: an intentionally shared handle documents its contract.

func sharedHandle(t *aliasstate.Table) *int {
	//pollux:aliasret-ok Extra is installed once at construction and read-only afterwards
	return t.Extra
}
