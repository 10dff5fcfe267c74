package server

import (
	"testing"
)

// FuzzSweepRequest feeds arbitrary bodies to decodeSweep, the parser every
// /v1/sweep request goes through. The committed corpus
// (testdata/fuzz/FuzzSweepRequest) holds TestPinnedSweepDecoding's bodies.
// A body must never panic the decoder; a rejection must say why; an
// accepted grid must pass Validate, and a small one must build exactly the
// jobs Size counts.
func FuzzSweepRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		_, g, err := decodeSweep(body)
		if err != nil {
			if err.Error() == "" {
				t.Fatalf("rejection without a message for %q", body)
			}
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted grid fails Validate: %v", err)
		}
		if n := g.Size(); n <= 64 {
			if jobs := g.Jobs(); len(jobs) != n {
				t.Fatalf("grid of size %d built %d jobs", n, len(jobs))
			}
		}
	})
}
