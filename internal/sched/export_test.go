package sched

import "repro/internal/ga"

// CommittedRows hands this directory's external tests the incremental
// state's job IDs and rows (nil before the first incremental round), the
// rows themselves so that identity can be asserted.
func (p *Pollux) CommittedRows() ([]int, ga.Matrix) {
	if p.inc == nil {
		return nil, nil
	}
	ids := make([]int, len(p.recs))
	for i, rec := range p.recs {
		ids[i] = rec.id
	}
	return ids, p.inc.rows
}
