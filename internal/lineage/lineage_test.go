package lineage

import "testing"

func record(id int, in, out string) *JobRecord {
	return &JobRecord{
		ID: id, InputFile: in, OutputFile: out, Splittable: true,
		Mappers: []MapperMeta{
			{Index: 0, InputPartition: 0, Node: 0},
			{Index: 1, InputPartition: 0, Node: 1},
			{Index: 2, InputPartition: 1, Node: 2},
		},
		Reducers: []ReducerMeta{
			{Index: 0, Nodes: []int{0}},
			{Index: 1, Nodes: []int{1}},
		},
	}
}

func TestAppendOrder(t *testing.T) {
	c := NewChain()
	if err := c.AppendRecord(record(1, "input", "out1")); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendRecord(record(3, "out1", "out3")); err == nil {
		t.Fatal("out-of-order ID accepted")
	}
	if err := c.AppendRecord(record(2, "out1", "out2")); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
}

func TestJobLookup(t *testing.T) {
	c := NewChain()
	c.AppendRecord(record(1, "input", "out1"))
	if c.Job(1) == nil || c.Job(1).ID != 1 {
		t.Fatal("Job(1) lookup failed")
	}
	if c.Job(0) != nil || c.Job(2) != nil {
		t.Fatal("out-of-range lookup returned a record")
	}
}

func TestMappersReading(t *testing.T) {
	j := record(1, "input", "out1")
	got := j.MappersReading(0)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("MappersReading(0) = %v, want [0 1]", got)
	}
	if got := j.MappersReading(5); len(got) != 0 {
		t.Fatalf("MappersReading(5) = %v, want empty", got)
	}
}

func TestSetters(t *testing.T) {
	c := NewChain()
	c.AppendRecord(record(1, "input", "out1"))
	c.SetMapperOutput(1, 2, 7, 999)
	m := c.Job(1).Mappers[2]
	if m.Node != 7 || m.OutputBytes != 999 {
		t.Fatalf("mapper meta after set: %+v", m)
	}
	c.SetReducerOutput(1, 1, []int{3, 4, 5}, 1234)
	r := c.Job(1).Reducers[1]
	if len(r.Nodes) != 3 || r.OutputBytes != 1234 {
		t.Fatalf("reducer meta after set: %+v", r)
	}
	// The stored slice must be a copy, immune to caller mutation.
	src := []int{9}
	c.SetReducerOutput(1, 0, src, 1)
	src[0] = 42
	if c.Job(1).Reducers[0].Nodes[0] != 9 {
		t.Fatal("SetReducerOutput aliased caller slice")
	}
}

func TestNumReducers(t *testing.T) {
	if got := record(1, "a", "b").NumReducers(); got != 2 {
		t.Fatalf("NumReducers = %d, want 2", got)
	}
}
