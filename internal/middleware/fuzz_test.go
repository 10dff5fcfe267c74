package middleware_test

import (
	"slices"
	"strings"
	"testing"

	"rcmp/internal/core"
	"rcmp/internal/middleware"
)

// parseJobs reads a job list from the fuzz spec "id:in,in>out;...". A job
// with no ">" has an empty output, and an empty input list reads nothing.
func parseJobs(spec string) []middleware.Job {
	var jobs []middleware.Job
	for _, js := range strings.Split(spec, ";") {
		left, out, _ := strings.Cut(js, ">")
		id, ins, _ := strings.Cut(left, ":")
		j := middleware.Job{ID: middleware.JobID(id), Output: out}
		if ins != "" {
			j.Inputs = strings.Split(ins, ",")
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// wellFormed is NewGraph's contract restated naively: non-empty, unique
// IDs and outputs, and every job eventually ready when a job is ready once
// each of its produced inputs comes from a job already placed.
func wellFormed(jobs []middleware.Job) bool {
	ids, producer := map[middleware.JobID]bool{}, map[string]int{}
	for i, j := range jobs {
		if j.ID == "" || j.Output == "" || ids[j.ID] {
			return false
		}
		if _, dup := producer[j.Output]; dup {
			return false
		}
		ids[j.ID], producer[j.Output] = true, i
	}
	placed := make([]bool, len(jobs))
	for n, progress := 0, true; progress; {
		progress = false
		for i, j := range jobs {
			ready := !placed[i]
			for _, in := range j.Inputs {
				if p, ok := producer[in]; ok && !placed[p] {
					ready = false
				}
			}
			if ready {
				placed[i], progress = true, true
				if n++; n == len(jobs) {
					return true
				}
			}
		}
	}
	return false
}

// FuzzNewGraph checks the graph validator against its contract: NewGraph
// errors exactly when the job list is malformed, and otherwise the
// topology over it orders every job once, every producer before its
// consumers, and its Output, Inputs, ProducerOf and ConsumersOf agree with
// the job list. The seed corpus (testdata/fuzz/FuzzNewGraph) holds a
// chain, a diamond, a cycle, a duplicate ID and a duplicate output.
func FuzzNewGraph(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		jobs := parseJobs(spec)
		g, err := middleware.NewGraph(jobs)
		if valid := wellFormed(jobs); (err == nil) != valid {
			t.Fatalf("NewGraph(%q) err = %v, well-formed %v", spec, err, valid)
		}
		if err != nil {
			return
		}
		topo, err := core.NewTopology(g)
		if err != nil {
			t.Fatal(err)
		}
		if topo.NumJobs() != len(jobs) {
			t.Fatalf("%d jobs ordered, %d declared", topo.NumJobs(), len(jobs))
		}
		pos, producer, consumers := map[middleware.JobID]int{}, map[string]int{}, map[string][]int{}
		for i := 1; i <= topo.NumJobs(); i++ {
			pos[middleware.JobID(topo.Name(i))] = i
		}
		for _, j := range jobs {
			if pos[j.ID] == 0 {
				t.Fatalf("job %q missing from the order", j.ID)
			}
			producer[j.Output] = pos[j.ID]
			consumers[j.Output] = nil
		}
		for _, j := range jobs {
			p := pos[j.ID]
			if topo.Output(p) != j.Output || !slices.Equal(topo.Inputs(p), j.Inputs) {
				t.Fatalf("job %q at %d: topology has %v > %q", j.ID, p, topo.Inputs(p), topo.Output(p))
			}
			for _, in := range j.Inputs {
				if got := topo.ProducerOf(in); got != producer[in] || got >= p {
					t.Fatalf("job %q at %d reads %q: ProducerOf %d, want %d", j.ID, p, in, got, producer[in])
				}
				consumers[in] = append(consumers[in], p)
			}
		}
		for file, want := range consumers {
			slices.Sort(want)
			if got := topo.ConsumersOf(file, nil); !slices.Equal(got, want) {
				t.Fatalf("ConsumersOf(%q) = %v, want %v", file, got, want)
			}
		}
	})
}
