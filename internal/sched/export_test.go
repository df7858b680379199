package sched

import "repro/internal/ga"

// CommittedRows hands this directory's external tests the incremental
// state's job IDs and rows (nil before the first incremental round), the
// slices themselves so that identity can be asserted.
func (p *Pollux) CommittedRows() ([]int, ga.Matrix) {
	if p.inc == nil {
		return nil, nil
	}
	return p.inc.ids, p.inc.rows
}
