// Package aliasstate declares mutex-guarded state for the aliasret
// fixture: its alias-typed fields become GuardedFieldFact facts, and
// the aliasret fixture package checks accessors against them from
// across the package boundary.
package aliasstate

import "sync"

// Table mirrors cluster.State: a mutex plus alias-typed fields. The
// fields are exported so the aliasret fixture package can reach them.
type Table struct {
	Mu     sync.Mutex
	Rows   map[string][]int
	Limits []int
	Extra  *int

	version int // value-typed: never a guarded-alias fact
}

// Rows1 returns the guarded map directly: flagged in-package.
func (t *Table) Rows1() map[string][]int {
	t.Mu.Lock()
	defer t.Mu.Unlock()
	return t.Rows // want `returning mutex-guarded field Table\.Rows \(guarded by "Mu"\) without a copy`
}

// Snapshot deep-copies rows the way cluster.Snapshot does after its
// PR 7 fix: the copy idiom passes untouched.
func (t *Table) Snapshot() map[string][]int {
	t.Mu.Lock()
	defer t.Mu.Unlock()
	out := make(map[string][]int, len(t.Rows))
	for k, row := range t.Rows {
		out[k] = append([]int(nil), row...)
	}
	return out
}

// Shallow is the reverted cluster.Snapshot bug: fresh outer map, every
// row still aliasing guarded memory.
func (t *Table) Shallow() map[string][]int {
	t.Mu.Lock()
	defer t.Mu.Unlock()
	out := make(map[string][]int, len(t.Rows))
	for k, row := range t.Rows {
		out[k] = row // want `storing "row" uncopied while ranging mutex-guarded field Table\.Rows`
	}
	return out
}

// Rehash re-stores rows inside the same guarded struct: rebucketing
// under the lock is not a leak.
func (t *Table) Rehash() {
	t.Mu.Lock()
	defer t.Mu.Unlock()
	for k, row := range t.Rows {
		t.Rows[k+"!"] = row
	}
}

// Version returns a value-typed field: values copy by assignment.
func (t *Table) Version() int {
	t.Mu.Lock()
	defer t.Mu.Unlock()
	return t.version
}

// Unguarded has alias-typed fields but no mutex: no facts, no findings.
type Unguarded struct {
	Rows map[string][]int
}

// All returns freely — nothing guards it.
func (u *Unguarded) All() map[string][]int {
	return u.Rows
}

// Ledger mirrors cluster.State after the single ledger: the guarded map
// holds entries, and the row sits one field below the lookup.
type Ledger struct {
	Mu      sync.Mutex
	Entries map[string]*Entry
	Zero    []int
}

// Entry is one job's ledger entry.
type Entry struct {
	Row []int
	Gen int
}

// View is what a round hands a policy; it outlives the lock.
type View struct {
	Current [][]int
	Gens    []int
}

// ViewShared is cluster.Service.Round sharing ledger rows with the view:
// a map lookup, then a field, stored outside the struct.
func (l *Ledger) ViewShared(names []string) *View {
	l.Mu.Lock()
	defer l.Mu.Unlock()
	v := &View{Current: make([][]int, len(names))}
	for i, name := range names {
		v.Current[i] = l.Entries[name].Row // want `storing "l\.Entries\[name\]\.Row" uncopied after reading an element of mutex-guarded field Ledger\.Entries`
	}
	return v
}

// ViewSharedViaLocals is the same leak through an entry local, a row
// local and append.
func (l *Ledger) ViewSharedViaLocals(names []string) *View {
	l.Mu.Lock()
	defer l.Mu.Unlock()
	v := &View{}
	for _, name := range names {
		row := l.Zero
		if p := l.Entries[name]; p != nil {
			row = p.Row
			v.Gens = append(v.Gens, p.Gen) // a value: copies by assignment
		}
		v.Current = append(v.Current, row) // want `storing "row" uncopied after reading an element of mutex-guarded field Ledger\.Entries`
	}
	return v
}

// ViewCopied clones each row on its way out: the copy idioms are calls.
func (l *Ledger) ViewCopied(names []string) *View {
	l.Mu.Lock()
	defer l.Mu.Unlock()
	v := &View{Current: make([][]int, len(names))}
	for i, name := range names {
		if p := l.Entries[name]; p != nil {
			v.Current[i] = append([]int(nil), p.Row...)
		}
	}
	return v
}

// Rename moves an entry inside the same guarded struct: not a leak.
func (l *Ledger) Rename(from, to string) {
	l.Mu.Lock()
	defer l.Mu.Unlock()
	p := l.Entries[from]
	l.Entries[to] = p
}

// ViewImmutable shares rows on purpose and says why it is sound.
func (l *Ledger) ViewImmutable(names []string) *View {
	l.Mu.Lock()
	defer l.Mu.Unlock()
	v := &View{Current: make([][]int, len(names))}
	for i, name := range names {
		//pollux:aliasret-ok rows are immutable once installed: a change replaces the entry's slice and never writes one
		v.Current[i] = l.Entries[name].Row
	}
	return v
}
