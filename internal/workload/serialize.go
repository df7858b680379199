package workload

import (
	"encoding/json"
	"fmt"
	"io"
)

// traceJSON is the on-disk representation of a Trace.
type traceJSON struct {
	Version  int     `json:"version"`
	Duration float64 `json:"duration_seconds"`
	Jobs     []Job   `json:"jobs"`
}

const traceVersion = 1

// WriteJSON serializes the trace so experiments can be replayed across
// runs and shared between the CLI tools.
func (t Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(traceJSON{Version: traceVersion, Duration: t.Duration, Jobs: t.Jobs})
}

// ReadJSON parses a trace written by WriteJSON and validates it. Anything
// but white space after the trace is an error.
func ReadJSON(r io.Reader) (Trace, error) {
	var tj traceJSON
	data, err := io.ReadAll(r)
	if err == nil {
		err = json.Unmarshal(data, &tj)
	}
	if err != nil {
		return Trace{}, fmt.Errorf("workload: decode trace: %w", err)
	}
	if tj.Version != traceVersion {
		return Trace{}, fmt.Errorf("workload: unsupported trace version %d", tj.Version)
	}
	t := Trace{Duration: tj.Duration, Jobs: tj.Jobs}
	if err := t.Validate(); err != nil {
		return Trace{}, err
	}
	return t, nil
}
