package middleware

import "testing"

func diamond() []Job {
	// input -> a -> {fa}
	// fa -> b -> {fb};  fa -> c -> {fc}
	// {fb, fc} -> d -> {fd}
	return []Job{
		{ID: "d", Inputs: []string{"fb", "fc"}, Output: "fd"},
		{ID: "b", Inputs: []string{"fa"}, Output: "fb"},
		{ID: "a", Inputs: []string{"input"}, Output: "fa"},
		{ID: "c", Inputs: []string{"fa"}, Output: "fc"},
	}
}

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(diamond()); err != nil {
		t.Fatal(err)
	}
	bad := [][]Job{
		{{ID: "", Output: "x"}},
		{{ID: "a", Output: "x"}, {ID: "a", Output: "y"}},
		{{ID: "a", Output: "x"}, {ID: "b", Output: "x"}},
		{{ID: "a"}},
		{ // cycle: a -> b -> a
			{ID: "a", Inputs: []string{"fb"}, Output: "fa"},
			{ID: "b", Inputs: []string{"fa"}, Output: "fb"},
		},
	}
	for i, jobs := range bad {
		if _, err := NewGraph(jobs); err == nil {
			t.Errorf("case %d: invalid graph accepted", i)
		}
	}
}

func TestTopologicalOrder(t *testing.T) {
	g, err := NewGraph(diamond())
	if err != nil {
		t.Fatal(err)
	}
	pos := map[JobID]int{}
	for i, id := range g.Order() {
		pos[id] = i
	}
	if !(pos["a"] < pos["b"] && pos["a"] < pos["c"] && pos["b"] < pos["d"] && pos["c"] < pos["d"]) {
		t.Fatalf("order violates dependencies: %v", g.Order())
	}
	// Deterministic: repeated construction yields the same order.
	g2, _ := NewGraph(diamond())
	for i, id := range g.Order() {
		if g2.Order()[i] != id {
			t.Fatal("order not deterministic")
		}
	}
}

func TestProducerConsumers(t *testing.T) {
	g, _ := NewGraph(diamond())
	if g.producer["fa"] != "a" || g.producer["input"] != "" {
		t.Fatal("producer lookup wrong")
	}
	cons := g.Consumers("fa")
	if len(cons) != 2 || cons[0] != "b" || cons[1] != "c" {
		t.Fatalf("consumers of fa = %v", cons)
	}
	if _, ok := g.Job("a"); !ok {
		t.Fatal("job lookup failed")
	}
	if _, ok := g.Job("zzz"); ok {
		t.Fatal("phantom job found")
	}
}

func TestChainConstructor(t *testing.T) {
	jobs := Chain(3)
	if len(jobs) != 3 {
		t.Fatalf("%d jobs", len(jobs))
	}
	if jobs[0].Inputs[0] != "input" || jobs[2].Inputs[0] != "out2" {
		t.Fatalf("chain wiring wrong: %+v", jobs)
	}
	if id, in, out := ChainNames(3); id != jobs[2].ID || in != "out2" || out != "out3" {
		t.Fatalf("ChainNames(3) = %s, %s, %s", id, in, out)
	}
}
