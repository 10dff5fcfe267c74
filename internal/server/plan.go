// plan.go is the /v1/plan endpoint: capacity planning on the analytic
// twin. A plan request asks "will SPLIT recovery hold my deadline at N
// nodes and T tenants?" and is answered by experiments.CapacityPlan —
// a closed-form evaluation, so the node range runs to 1048576 where
// /v1/sweep's DES jobs cap at 16384. Answers go through the same
// digest-keyed single-flight result cache as sweep jobs (keyed by
// experiments.PlanDigest, so a plan can never collide with a figure) and
// through the same scheduler, so fairness caps and drain semantics apply
// unchanged even though each job costs microseconds.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"rcmp/internal/experiments"
	"rcmp/internal/runner"
)

// PlanRequest is the /v1/plan body. Zero values mean: quick scale, seed
// 0, the setup's own cluster size, one tenant, the figure-default failure
// position, no deadline.
type PlanRequest struct {
	// Scale is "paper", "quick" or "smoke" ("" = quick: capacity planning
	// wants the calibrated quick shape, not a bigger chain).
	Scale string `json:"scale,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
	// Nodes is the cluster size to plan for (up to 1048576).
	Nodes int `json:"nodes,omitempty"`
	// Tenants is the shared-cluster tenant count (utilization dial).
	Tenants int `json:"tenants,omitempty"`
	// FailureAt overrides which started run the failure hits.
	FailureAt int `json:"failure_at,omitempty"`
	// DeadlineSec, when > 0, adds meets-deadline verdicts judged against
	// the session makespan (simulated seconds).
	DeadlineSec float64 `json:"deadline_sec,omitempty"`
	// TimeoutSec caps this request's wait below the server default.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// PlanResponse is the /v1/plan answer.
type PlanResponse struct {
	// Result is the plan in the same shape as a sweep row: values carry
	// makespans, recovery costs and utilization for both strategies.
	Result runner.ReportResult `json:"result"`
	// SplitMeetsDeadline / NoSplitMeetsDeadline are present only when the
	// request set a deadline.
	SplitMeetsDeadline   *bool `json:"split_meets_deadline,omitempty"`
	NoSplitMeetsDeadline *bool `json:"no_split_meets_deadline,omitempty"`
	// Cache reports whether the answer was served from the result cache
	// ("hit") or computed by this request ("miss").
	Cache string `json:"cache"`
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readPost(w, r)
	if !ok {
		return
	}
	var req PlanRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return
	}
	if req.Scale == "" {
		req.Scale = "quick" // capacity planning's calibrated shape
	}
	scale, err := experiments.ParseScale(req.Scale)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.DeadlineSec < 0 {
		http.Error(w, "deadline_sec must be >= 0", http.StatusBadRequest)
		return
	}
	cfg := experiments.Config{
		Scale:     scale,
		Seed:      req.Seed,
		Nodes:     req.Nodes,
		Tenants:   req.Tenants,
		FailureAt: req.FailureAt,
		Engine:    experiments.EngineAnalytic,
	}
	deadline := experiments.PlanDeadline(req.DeadlineSec)
	job := runner.Job{
		Name:   planJobName(cfg, req.DeadlineSec),
		Key:    "plan",
		Config: cfg,
		Run: func(c experiments.Config) (*experiments.Result, error) {
			return experiments.CapacityPlan(c, deadline)
		},
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(req.TimeoutSec))
	defer cancel()
	// Same admission as /v1/sweep, for a one-job grid.
	states := s.admit(ctx, w, clientID(r), []runner.Job{job}, func(runner.Job) string {
		return experiments.PlanDigest(cfg, deadline)
	})
	if states == nil {
		return
	}
	e, owner := states[0].e, states[0].owner
	defer s.cache.release(e)

	select {
	case <-e.done:
	case <-ctx.Done():
		http.Error(w, "request timed out before the plan completed", http.StatusGatewayTimeout)
		return
	}

	var row runner.ReportResult
	if err := json.Unmarshal(e.row, &row); err != nil {
		http.Error(w, fmt.Sprintf("decode cached plan: %v", err), http.StatusInternalServerError)
		return
	}
	resp := PlanResponse{Result: row, Cache: "hit"}
	if owner {
		resp.Cache = "miss"
	}
	if req.DeadlineSec > 0 {
		if v, ok := row.Values["SPLIT meets deadline"].(float64); ok {
			b := v == 1
			resp.SplitMeetsDeadline = &b
		}
		if v, ok := row.Values["NO-SPLIT meets deadline"].(float64); ok {
			b := v == 1
			resp.NoSplitMeetsDeadline = &b
		}
	}
	status := http.StatusOK
	if row.Error != "" {
		// A config error (nodes out of even the analytic range, bad
		// failure position) is the client's, not the server's.
		status = http.StatusBadRequest
	}
	writeJSON(w, status, resp)
}

// planJobName names a plan job the way JobName names sweep jobs, except
// that the scale is always spelled out and the engine never is: every
// plan runs on the analytic twin.
func planJobName(c experiments.Config, deadlineSec float64) string {
	prefix := "CapacityPlan/" + c.Scale.String()
	c.Scale, c.Engine = experiments.ScalePaper, experiments.EngineDES
	name := experiments.JobName(prefix, c)
	if deadlineSec > 0 {
		name += fmt.Sprintf("/deadline=%g", deadlineSec)
	}
	return name
}
