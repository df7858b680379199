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
