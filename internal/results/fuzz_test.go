package results

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzParseGoBench feeds ParseGoBench what a CI step can pipe into it: any
// bytes. It parses them or refuses them and never panics, and a report it
// returns is one the rest of the pipeline can carry: WriteJSON encodes it
// and ReadJSON gives back the same records. The seed corpus under
// testdata/fuzz runs on every plain `go test`.
func FuzzParseGoBench(f *testing.F) {
	f.Add([]byte(sampleBenchOutput))
	f.Fuzz(func(t *testing.T, out []byte) {
		rep, err := ParseGoBench(bytes.NewReader(out))
		if err != nil {
			if len(rep.Records) != 0 {
				t.Fatalf("refused input left records behind: %+v", rep)
			}
			return
		}
		if len(rep.Records) == 0 {
			t.Fatal("accepted input without a benchmark line")
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, rep); err != nil {
			t.Fatalf("parsed report does not encode: %v\n%+v", err, rep)
		}
		back, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("encoded report does not parse: %v", err)
		}
		if !reflect.DeepEqual(back, rep) {
			t.Fatalf("report changed over a round trip:\n%+v\nto\n%+v", rep, back)
		}
	})
}

// FuzzReadReport feeds ReadJSON what a baseline file can hold: any bytes.
// It refuses them, or the report it reads survives the pipeline: WriteJSON
// encodes it and ReadJSON reads it back. The first round trip may drop an
// empty omitempty list; from then on a round trip changes nothing
// (reflect.DeepEqual).
func FuzzReadReport(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteJSON(&valid, sampleReport()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add(append(bytes.Clone(valid.Bytes()), "<<<<<<< HEAD\n"...))
	f.Add(bytes.Replace(valid.Bytes(), []byte(`"go1.24.0"`), []byte(`1.24`), 1))
	f.Fuzz(func(t *testing.T, in []byte) {
		rep, err := ReadJSON(bytes.NewReader(in))
		if err != nil {
			return
		}
		for pass := 0; pass < 2; pass++ {
			var buf bytes.Buffer
			if err := WriteJSON(&buf, rep); err != nil {
				t.Fatalf("read report does not encode: %v\n%+v", err, rep)
			}
			back, err := ReadJSON(&buf)
			if err != nil {
				t.Fatalf("encoded report does not parse: %v", err)
			}
			if pass == 1 && !reflect.DeepEqual(back, rep) {
				t.Fatalf("report changed over a round trip:\n%+v\nto\n%+v", rep, back)
			}
			rep = back
		}
	})
}
