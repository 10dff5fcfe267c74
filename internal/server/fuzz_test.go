package server

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rcmp/internal/experiments"
	"rcmp/internal/runner"
)

// FuzzSweepRequest feeds arbitrary bodies to decodeSweep, the parser every
// /v1/sweep request goes through. The committed corpus
// (testdata/fuzz/FuzzSweepRequest) holds TestPinnedSweepDecoding's bodies,
// null list elements and keys spelled in other cases. A body must never
// panic the decoder; a rejection must say why; an accepted grid must pass
// Validate, and a small one must build exactly the jobs Size counts. And
// the decoder must agree with the two-pass reference (decodeSweepRef): the
// same grid, so the same job names and Configs, or the same error text,
// except on keys that collide without regard to case, which the reference
// resolved in map order.
func FuzzSweepRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		_, g, err := decodeSweep(body)
		if !caseCollidingKeys(body) {
			ref, refErr := decodeSweepRef(body)
			switch {
			case (err == nil) != (refErr == nil):
				t.Fatalf("%q: error %v, reference error %v", body, err, refErr)
			case err != nil && err.Error() != refErr.Error():
				t.Fatalf("%q: error %q, reference error %q", body, err, refErr)
			case err == nil && !sameGrid(g, ref):
				t.Fatalf("%q: grid differs from the reference's", body)
			}
		}
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

// caseCollidingKeys reports whether a JSON object body holds two distinct
// top-level keys that are equal without regard to case.
func caseCollidingKeys(body []byte) bool {
	var keys map[string]json.RawMessage
	if json.Unmarshal(body, &keys) != nil {
		return false
	}
	for k := range keys {
		for other := range keys {
			if other != k && strings.EqualFold(other, k) {
				return true
			}
		}
	}
	return false
}

// sameGrid reports whether two decoded grids build the same jobs: the same
// specs, seed set and values per dimension, and for a small grid the same
// job names and Configs. An absent dimension and an empty list are the
// same.
func sameGrid(a, b runner.Grid) bool {
	if a.SeedSet != b.SeedSet || len(a.Specs) != len(b.Specs) {
		return false
	}
	for i := range a.Specs {
		if a.Specs[i].Key != b.Specs[i].Key {
			return false
		}
	}
	for _, d := range experiments.Dims() {
		if !slices.EqualFunc(a.Axes[d.Name], b.Axes[d.Name], func(x, y experiments.Config) bool { return reflect.DeepEqual(x, y) }) {
			return false
		}
	}
	if a.Size() > 64 {
		return true
	}
	return slices.EqualFunc(a.Jobs(), b.Jobs(), func(x, y runner.Job) bool {
		return x.Name == y.Name && reflect.DeepEqual(x.Config, y.Config)
	})
}
