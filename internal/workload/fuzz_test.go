package workload

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzReadTrace feeds ReadJSON what a -trace file can hold: any bytes. It
// refuses them, or the trace it reads is valid and comes back unchanged
// (reflect.DeepEqual) from WriteJSON and ReadJSON.
func FuzzReadTrace(f *testing.F) {
	var valid bytes.Buffer
	if err := Generate(rand.New(rand.NewSource(1)), Options{Jobs: 3, Hours: 1}).WriteJSON(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add(append(bytes.Clone(valid.Bytes()), `{"version": 1}`...))
	f.Add(bytes.Replace(valid.Bytes(), []byte(`"version": 1`), []byte(`"version": 2`), 1))
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := ReadJSON(bytes.NewReader(in))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("read trace is invalid: %v", err)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatalf("read trace does not encode: %v", err)
		}
		back, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("encoded trace does not parse: %v", err)
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("trace changed over a round trip:\n%+v\nto\n%+v", tr, back)
		}
	})
}
