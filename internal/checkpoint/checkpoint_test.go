package checkpoint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type payload struct {
	Name  string
	Round int
	Rate  float64
}

func writeSample(t testing.TB) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "state.ckpt")
	if err := Write(path, "test-state", 1, payload{Name: "job-0", Round: 17, Rate: 0.1 + 0.2}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return path
}

func TestRoundTrip(t *testing.T) {
	path := writeSample(t)
	var got payload
	ver, err := Read(path, "test-state", 1, &got)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if ver != 1 {
		t.Fatalf("version = %d, want 1", ver)
	}
	want := payload{Name: "job-0", Round: 17, Rate: 0.1 + 0.2}
	if got != want {
		t.Fatalf("round trip = %+v, want %+v (floats must be bit-identical)", got, want)
	}
}

func TestTruncatedFileFailsLoudly(t *testing.T) {
	path := writeSample(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var got payload
	if _, err := Read(path, "test-state", 1, &got); err == nil {
		t.Fatal("Read of truncated file succeeded, want loud error")
	} else if !strings.Contains(err.Error(), "truncated or corrupt") {
		t.Fatalf("truncated file error = %v, want mention of corruption", err)
	}
}

func TestChecksumMismatchFailsLoudly(t *testing.T) {
	path := writeSample(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the body ("job-0" -> "jab-0") without breaking the
	// JSON structure, so only the checksum can catch it.
	corrupt := strings.Replace(string(data), "job-0", "jab-0", 1)
	if corrupt == string(data) {
		t.Fatal("test setup: body marker not found")
	}
	if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	var got payload
	if _, err := Read(path, "test-state", 1, &got); err == nil {
		t.Fatal("Read of checksum-corrupt file succeeded, want loud error")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("checksum error = %v, want mention of checksum", err)
	}
}

func TestVersionSkewFailsLoudly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	if err := Write(path, "test-state", 99, payload{}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	var got payload
	if _, err := Read(path, "test-state", 1, &got); err == nil {
		t.Fatal("Read of future-version file succeeded, want loud error")
	} else if !strings.Contains(err.Error(), "version") {
		t.Fatalf("version skew error = %v, want mention of version", err)
	}
}

func TestWrongKindFailsLoudly(t *testing.T) {
	path := writeSample(t)
	var got payload
	if _, err := Read(path, "other-state", 1, &got); err == nil {
		t.Fatal("Read with mismatched kind succeeded, want loud error")
	} else if !strings.Contains(err.Error(), "test-state") {
		t.Fatalf("kind mismatch error = %v, want both kinds named", err)
	}
}

func TestMissingFileFailsLoudly(t *testing.T) {
	var got payload
	if _, err := Read(filepath.Join(t.TempDir(), "absent.ckpt"), "test-state", 1, &got); err == nil {
		t.Fatal("Read of missing file succeeded, want error")
	}
}

func TestAtomicOverwriteKeepsOldOnNewWrite(t *testing.T) {
	path := writeSample(t)
	if err := Write(path, "test-state", 1, payload{Name: "job-1", Round: 18}); err != nil {
		t.Fatalf("second Write: %v", err)
	}
	var got payload
	if _, err := Read(path, "test-state", 1, &got); err != nil {
		t.Fatalf("Read after overwrite: %v", err)
	}
	if got.Name != "job-1" || got.Round != 18 {
		t.Fatalf("after overwrite got %+v", got)
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("checkpoint dir has %d entries, want 1 (no temp files)", len(entries))
	}
}
