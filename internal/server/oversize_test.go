package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestOversizedSweepRejectedBeforeBuilding: a body of a few hundred bytes
// can describe a grid of millions of jobs (seeds × seed_set × every other
// dimension). The per-request cap must turn it away from the grid's size,
// before a single job is built, so an oversized request costs the server
// a bounded handful of allocations instead of one job's worth per point.
func TestOversizedSweepRejectedBeforeBuilding(t *testing.T) {
	s, _ := testServer(t, Config{Workers: 1})
	seeds := strings.Repeat("0,", 19) + "0"
	for _, body := range []string{
		`{"specs":["cost"],"seeds":[` + seeds + `],"seed_set":1024}`,
		`{"specs":["all"],"seeds":[` + seeds + `],"failure_ats":[1,2,3,4]}`,
	} {
		var code int
		allocs := testing.AllocsPerRun(3, func() {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body)))
			code = rec.Code
		})
		if code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", body, code)
		}
		if allocs > 1000 {
			t.Errorf("%s: %.0f allocations to reject, want at most 1000: the grid was built before the cap was checked", body, allocs)
		}
	}
}
