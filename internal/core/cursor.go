package core

import (
	"rcmp/internal/dfs"
	"rcmp/internal/lineage"
	"rcmp/internal/metrics"
	"rcmp/internal/middleware"
)

// cursor.go is the paper's middleware (Section IV-A) written once: it
// submits one run at a time in topological order, turns a data loss into a
// checked recovery plan whose steps it submits ahead of the interrupted
// job, and commits every finished run to the lineage. The simulator, dmr
// and the functional engine each drive one Cursor and keep only how they
// execute a run, how they learn of a loss, and their own extras.

// Policy is what a cursor decides by. Options are the planner's
// (AliveNodes is set at each loss). Job j's output is replicated
// ReplicationForJob(j, HybridEveryK, HybridRepl) times; with
// ReclaimAtCheckpoints each completed replicated job reclaims what it makes
// unreachable (Section IV-C).
type Policy struct {
	Options
	HybridEveryK, HybridRepl int
	ReclaimAtCheckpoints     bool
}

// Run is one job run a cursor hands out: the recomputation step Step, or
// a full run of Job when Step is nil (every mapper over the inputs as laid
// out now, every reducer whole).
type Run struct {
	Job  int
	Kind metrics.RunKind
	Step *JobStep
}

// Cursor walks one job graph. Beyond the lineage and the record of the
// plans it adopts it allocates nothing, so a backend holds it by value in
// its driver.
type Cursor struct {
	ch       *lineage.Chain
	topo     *Topology
	policy   Policy
	episodes []Episode // one per adopted plan, in order

	frontier   int       // the job whose full run is next or running
	submitted  int       // the last job whose full run was handed out
	queue      []JobStep // adopted plan steps not yet handed out
	recovering bool      // a plan was adopted since the last full run was handed out
}

// NewCursor starts a walk of topo at its first job, with empty lineage.
func NewCursor(topo *Topology, p Policy) Cursor {
	return Cursor{ch: lineage.NewChain(), topo: topo, policy: p, frontier: 1}
}

// LinearTopology is the topology of middleware.Chain(n): the n-job chain
// the data-plane runtimes run and BuildPlan and ReclaimableBefore plan
// over.
func LinearTopology(n int) (*Topology, error) {
	return TopologyOf(middleware.Chain(n))
}

// Lineage returns the lineage the cursor commits to.
func (c *Cursor) Lineage() *lineage.Chain { return c.ch }

// Frontier returns the job whose full run is next or running.
func (c *Cursor) Frontier() int { return c.frontier }

// Finished reports whether every job's full run has been committed.
func (c *Cursor) Finished() bool { return c.frontier > c.topo.NumJobs() }

// Episodes returns the record of the plans the cursor adopted, one
// Episode per Recover call, in order.
func (c *Cursor) Episodes() []Episode { return c.episodes }

// Queued returns the number of plan steps left to hand out; at zero the
// next run is the frontier's full run.
func (c *Cursor) Queued() int { return len(c.queue) }

// Next hands out the next run: the first queued plan step, else the
// frontier job's full run, a restart if that job was handed out before.
// It reports false once the graph is finished.
func (c *Cursor) Next() (Run, bool) {
	if len(c.queue) > 0 {
		run := Run{Job: c.queue[0].Job, Kind: metrics.RunRecompute, Step: &c.queue[0]}
		c.queue = c.queue[1:]
		return run, true
	}
	if c.Finished() {
		return Run{}, false
	}
	kind := metrics.RunInitial
	if c.frontier <= c.submitted {
		kind = metrics.RunRestart
	}
	c.submitted, c.recovering = c.frontier, false
	return Run{Job: c.frontier, Kind: kind}, true
}

// Plan builds the recovery plan for a loss, once the backend has stopped
// the run it hit: the minimal cascade over every node failed so far,
// checked against the lineage and fs it was built from (re-run mappers
// only where map outputs are reused). It changes nothing; Recover adopts.
func (c *Cursor) Plan(fs *dfs.FS, failed map[int]bool, alive int) (*Plan, error) {
	opts := c.policy.Options
	opts.AliveNodes = alive
	plan, err := BuildGraphPlan(c.ch, c.topo, fs, c.frontier, failed, opts)
	if err != nil {
		return nil, err
	}
	if err := CheckPlan(c.ch, fs, failed, plan, !opts.NoMapOutputReuse); err != nil {
		return nil, err
	}
	return plan, nil
}

// Recover adopts a plan from Plan: it marks the plan's invalidated map
// outputs, records the plan as an Episode, and queues its steps ahead of
// the frontier's restart, replacing any left from an earlier plan. It
// reports whether the loss opened a recovery episode; a loss found before
// the previous plan's restart was handed out folds into that episode.
func (c *Cursor) Recover(plan *Plan) (episode bool) {
	for _, ref := range plan.Invalidated {
		c.ch.InvalidateMapperOutput(ref.Job, ref.Mapper)
	}
	c.episodes = append(c.episodes, captureEpisode(c.frontier, plan, c.ch))
	c.queue = plan.Steps
	episode, c.recovering = !c.recovering, true
	return episode
}

// Done commits a finished run's tasks, given in lineage terms. A step's
// re-run mappers and regenerated reducers replace their entries in the
// job's record. A full run's rec is named, appended as the job's record,
// and the frontier advances; if the job is a checkpoint to reclaim behind,
// the reclaimed map outputs are marked gone and the Reclamation is
// returned for the backend to delete.
func (c *Cursor) Done(run Run, rec *lineage.JobRecord) (Reclamation, error) {
	if run.Step != nil {
		for _, m := range rec.Mappers {
			c.ch.SetMapperOutput(run.Job, m.Index, m.Node, m.OutputBytes)
		}
		for _, r := range rec.Reducers {
			c.ch.SetReducerOutput(run.Job, r.Index, r.Nodes, r.OutputBytes)
		}
		return Reclamation{}, nil
	}
	in := c.topo.Inputs(run.Job)
	rec.ID, rec.Name = run.Job, c.topo.Name(run.Job)
	rec.InputFile, rec.OutputFile = in[0], c.topo.Output(run.Job)
	if len(in) > 1 {
		rec.InputFiles = in
	}
	rec.Splittable, rec.Completed = true, true
	if err := c.ch.AppendRecord(rec); err != nil {
		return Reclamation{}, err
	}
	c.frontier++
	p := c.policy
	if !p.ReclaimAtCheckpoints || ReplicationForJob(run.Job, p.HybridEveryK, p.HybridRepl) <= 1 {
		return Reclamation{}, nil
	}
	rcl, err := GraphReclaimableBefore(c.ch, c.topo, run.Job)
	if err != nil {
		return Reclamation{}, err
	}
	ApplyReclamation(c.ch, rcl)
	return rcl, nil
}
