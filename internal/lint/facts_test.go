package lint

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"
)

// sampleTable builds a fact table with one non-zero instance of every
// registered fact type, so encoding tests cover the whole wire surface.
func sampleTable() map[string][]Fact {
	return map[string][]Fact{
		"func NowUnix": {
			&ClockTaintFact{Path: []string{"clockutil.NowUnix", "time.Now"}},
		},
		"param func Spawn#0": {
			&RngEscapeFact{Path: []string{"a closure spawned via a go statement"}},
		},
		"field State.placed": {
			&GuardedFieldFact{Struct: "State", Field: "placed", Guard: "mu"},
		},
		// One key carrying several fact types exercises the within-key
		// sort.
		"method (Timer).Touch": {
			&RngEscapeFact{Path: []string{"par.For"}},
			&ClockTaintFact{Path: []string{"time.Now"}},
		},
	}
}

// TestFactGobRoundTrip encodes and decodes every registered fact type
// and requires the payload to survive unchanged. A fact type added to
// AllFactTypes without gob-encodable fields fails here, not in a vet
// run.
func TestFactGobRoundTrip(t *testing.T) {
	table := sampleTable()
	// Every registered type must appear in the sample — this test is the
	// checklist for future fact types.
	seen := map[string]bool{}
	for _, facts := range table {
		for _, f := range facts {
			seen[fmt.Sprintf("%T", f)] = true
		}
	}
	for _, f := range AllFactTypes() {
		if !seen[fmt.Sprintf("%T", f)] {
			t.Errorf("registered fact type %T missing from sampleTable — add a populated instance", f)
		}
	}

	data, err := EncodeFacts(table)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeFacts(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(table) {
		t.Fatalf("round trip kept %d keys, want %d", len(got), len(table))
	}
	for key, want := range table {
		gotFacts := got[key]
		if len(gotFacts) != len(want) {
			t.Fatalf("key %q: %d facts after round trip, want %d", key, len(gotFacts), len(want))
		}
		for _, w := range want {
			found := false
			for _, g := range gotFacts {
				if reflect.DeepEqual(g, w) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("key %q: fact %#v lost in round trip", key, w)
			}
		}
	}
}

// TestEncodeFactsDeterministic requires byte-identical encodings across
// repeated runs: map iteration order is randomized per run, so any
// order dependence in EncodeFacts shows up as flapping bytes — which
// would churn the go command's action cache on every build.
func TestEncodeFactsDeterministic(t *testing.T) {
	first, err := EncodeFacts(sampleTable())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := EncodeFacts(sampleTable())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("encoding %d differs from the first: .vetx bytes must be a pure function of the facts", i)
		}
	}
}

// TestEncodeFactsEmpty pins the empty-table representation to zero
// bytes: the pre-facts driver wrote empty .vetx files, and stdlib units
// still do, so both directions must treat zero bytes as "no facts".
func TestEncodeFactsEmpty(t *testing.T) {
	data, err := EncodeFacts(map[string][]Fact{})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("empty table encoded to %d bytes, want 0", len(data))
	}
	table, err := DecodeFacts(nil)
	if err != nil {
		t.Fatalf("decoding empty input: %v", err)
	}
	if len(table) != 0 {
		t.Fatalf("empty input decoded to %d keys, want 0", len(table))
	}
}

// TestDecodeFactsCorrupt requires corruption to surface as an error,
// never as a silently empty table.
func TestDecodeFactsCorrupt(t *testing.T) {
	if _, err := DecodeFacts([]byte("not a gob stream")); err == nil {
		t.Fatal("corrupt input decoded without error")
	}
	// A truncated valid stream must fail too.
	data, err := EncodeFacts(sampleTable())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFacts(data[:len(data)/2]); err == nil {
		t.Fatal("truncated input decoded without error")
	}
}

// TestDecodeFactsVersionMismatch pins the loud failure on a wire-format
// bump: a .vetx written by a future pollux-vet must be rejected, not
// misread.
func TestDecodeFactsVersionMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(vetxPayload{Version: vetxVersion + 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFacts(buf.Bytes()); err == nil {
		t.Fatal("version mismatch decoded without error")
	}
}

// TestFactsExportReplaces pins the one-fact-per-type-per-key rule the
// fixpoint analyzers rely on when they refine a fact in place.
func TestFactsExportReplaces(t *testing.T) {
	fs := NewFacts("p")
	fs.Export("func F", &RngEscapeFact{Path: []string{"go statement"}})
	fs.Export("func F", &RngEscapeFact{Path: []string{"par.For"}})
	fs.Export("func F", &ClockTaintFact{Path: []string{"time.Now"}})
	if got := len(fs.Exported()["func F"]); got != 2 {
		t.Fatalf("%d facts on key, want 2 (replace same type, keep other types)", got)
	}
	var rng RngEscapeFact
	if !fs.Lookup("p", "func F", &rng) || len(rng.Path) != 1 || rng.Path[0] != "par.For" {
		t.Fatalf("lookup returned %+v, want the replaced fact with Path [par.For]", rng)
	}
}
