package testutil

import (
	"fmt"
	"slices"
	"testing"
)

// RowJournal remembers every allocation row a test has seen published — in
// a round's view, in a matrix a policy returned, in a ledger — next to a
// deep copy taken when the row was first seen. An allocation row is
// immutable once it crosses an API (docs/architecture.md, "Pass budget
// and ownership"), so Check failing means somebody wrote a cell of a row
// that other holders still read.
type RowJournal struct {
	rows, copies [][]int
	known        map[*int]bool // first cell of every journaled row
}

// See journals the rows it has not seen before; empty rows have no cell
// to write and are skipped.
func (j *RowJournal) See(rows [][]int) {
	if j.known == nil {
		j.known = make(map[*int]bool)
	}
	for _, row := range rows {
		if len(row) == 0 || j.known[&row[0]] {
			continue
		}
		j.known[&row[0]] = true
		j.rows = append(j.rows, row)
		j.copies = append(j.copies, slices.Clone(row))
	}
}

// Check reports every journaled row that no longer reads as it did when
// first seen.
func (j *RowJournal) Check(t testing.TB, when string) {
	t.Helper()
	for k, row := range j.rows {
		if !slices.Equal(row, j.copies[k]) {
			t.Errorf("%s: a published row was written: first seen as %v, now %v", when, j.copies[k], row)
		}
	}
}

// Len is the number of distinct rows journaled.
func (j *RowJournal) Len() int { return len(j.rows) }

// CheckLedger checks a runtime.Ledger's capacity, usage totals and rows
// (this package cannot import runtime, whose tests import it) over slots 0
// to slots-1: every row has a cell per node, the rows sum to the usage
// totals, and no node holds more GPUs than it has.
func CheckLedger(capacity, usage []int, row func(slot int) []int, slots int) error {
	sum := make([]int, len(capacity))
	for s := 0; s < slots; s++ {
		if len(row(s)) != len(capacity) {
			return fmt.Errorf("slot %d has %d nodes, cluster has %d", s, len(row(s)), len(capacity))
		}
		for n, g := range row(s) {
			sum[n] += g
		}
	}
	if !slices.Equal(sum, usage) {
		return fmt.Errorf("usage totals %v, the rows sum to %v", usage, sum)
	}
	for n, c := range capacity {
		if sum[n] > c {
			return fmt.Errorf("node %d oversubscribed: %d > %d", n, sum[n], c)
		}
	}
	return nil
}
