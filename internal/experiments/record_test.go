package experiments

import "testing"

// TestOutcomeRecord pins the Outcome → results.Record conversion: metric
// sorting, units, default and per-metric tolerance bands, and metadata.
func TestOutcomeRecord(t *testing.T) {
	o := Outcome{
		ID: "x", Title: "t", Policies: []string{"Pollux"}, Seeds: []int64{1, 2},
		RelTol: 0.05,
		Notes:  []string{"n"},
	}
	o.setUnit("b/metric", "s", 2.0)
	o.set("a/metric", 1.0)
	o.setUnit("c/metric", "frac", 3.0)
	o.setTol("c/metric", 0, 0.25)

	r := o.Record("quick")
	if r.Exhibit != "x" || r.Scale != "quick" || len(r.Seeds) != 2 || r.Policies[0] != "Pollux" {
		t.Fatalf("metadata wrong: %+v", r)
	}
	if len(r.Metrics) != 3 {
		t.Fatalf("metrics = %d, want 3", len(r.Metrics))
	}
	for i, want := range []string{"a/metric", "b/metric", "c/metric"} {
		if r.Metrics[i].Name != want {
			t.Errorf("metric[%d] = %q, want %q (sorted)", i, r.Metrics[i].Name, want)
		}
	}
	//pollux:floateq-ok the defaulted tolerance is assigned from this same 0.05 literal; the check is verbatim propagation
	if m := r.Metrics[0]; m.Unit != "" || m.RelTol != 0.05 || m.AbsTol != 0 {
		t.Errorf("default band not applied: %+v", m)
	}
	//pollux:floateq-ok the defaulted tolerance is assigned from this same 0.05 literal; the check is verbatim propagation
	if m := r.Metrics[1]; m.Unit != "s" || m.RelTol != 0.05 {
		t.Errorf("unit lost: %+v", m)
	}
	if m := r.Metrics[2]; m.RelTol != 0 || m.AbsTol != 0.25 {
		t.Errorf("per-metric override not applied: %+v", m)
	}
	if len(r.Notes) != 1 {
		t.Errorf("notes lost: %+v", r.Notes)
	}
}

func TestScaleByName(t *testing.T) {
	q, err := ScaleByName("quick")
	if err != nil || q.Jobs != QuickScale().Jobs {
		t.Errorf("quick: %+v, %v", q, err)
	}
	f, err := ScaleByName("full")
	if err != nil || f.Jobs != FullScale().Jobs {
		t.Errorf("full: %+v, %v", f, err)
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}
