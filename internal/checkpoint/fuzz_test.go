package checkpoint

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzCheckpointRead feeds Read what a restore can find on disk: any
// bytes. Read refuses them, or it returns a supported version and a body
// that survives the trip back: Write re-encodes it and Read gives back the
// same value at the same version. The seeds are a valid checkpoint, a
// truncated one, one with a flipped body byte and one of another kind.
func FuzzCheckpointRead(f *testing.F) {
	const kind, maxVersion = "test-state", 2
	valid, err := os.ReadFile(writeSample(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(strings.Replace(string(valid), "job-0", "jab-0", 1)))
	f.Add([]byte(strings.Replace(string(valid), `"kind":"test-state"`, `"kind":"other-state"`, 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got payload
		ver, err := Read(path, kind, maxVersion, &got)
		if err != nil {
			return
		}
		if ver < 1 || ver > maxVersion {
			t.Fatalf("accepted version %d outside 1..%d", ver, maxVersion)
		}
		again := filepath.Join(dir, "again.ckpt")
		if err := Write(again, kind, ver, got); err != nil {
			t.Fatalf("accepted body does not encode: %v\n%+v", err, got)
		}
		var back payload
		backVer, err := Read(again, kind, maxVersion, &back)
		if err != nil {
			t.Fatalf("re-encoded checkpoint is refused: %v", err)
		}
		if backVer != ver || !reflect.DeepEqual(back, got) {
			t.Fatalf("version %d body %+v came back as version %d body %+v", ver, got, backVer, back)
		}
	})
}
