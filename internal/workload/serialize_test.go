package workload

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestTraceJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	orig := Generate(rng, Options{Jobs: 25, Hours: 2})
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	//pollux:floateq-ok JSON round trip must hand the duration back verbatim (Go prints the shortest exact float)
	if back.Duration != orig.Duration {
		t.Errorf("duration = %v, want %v", back.Duration, orig.Duration)
	}
	if len(back.Jobs) != len(orig.Jobs) {
		t.Fatalf("jobs = %d, want %d", len(back.Jobs), len(orig.Jobs))
	}
	for i := range back.Jobs {
		if back.Jobs[i] != orig.Jobs[i] {
			t.Fatalf("job %d mismatch: %+v vs %+v", i, back.Jobs[i], orig.Jobs[i])
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	var valid bytes.Buffer
	if err := Generate(rand.New(rand.NewSource(1)), Options{Jobs: 2, Hours: 1}).WriteJSON(&valid); err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{"not json", valid.String() + `{"version": 1}`} {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("garbage accepted: %q", in)
		}
	}
}

func TestReadJSONRejectsWrongVersion(t *testing.T) {
	in := `{"version": 99, "duration_seconds": 100, "jobs": []}`
	if _, err := ReadJSON(strings.NewReader(in)); err == nil {
		t.Error("wrong version accepted")
	}
}

func TestReadJSONValidates(t *testing.T) {
	// A structurally valid trace with an invalid job (unknown model).
	in := `{"version": 1, "duration_seconds": 100, "jobs": [
		{"ID": 0, "Model": "bogus", "Submit": 1,
		 "TunedGPUs": 1, "TunedBatch": 128, "UserGPUs": 1, "UserBatch": 128}]}`
	if _, err := ReadJSON(strings.NewReader(in)); err == nil {
		t.Error("invalid trace accepted")
	}
}
