package dmr

import (
	"testing"

	"rcmp/internal/workload"
)

func hasBlock(s *store, file string, part, block int) bool {
	_, err := s.GetBlock(file, part, block)
	return err == nil
}

func TestStoreBlockRoundTrip(t *testing.T) {
	s := newStore()
	rows := workload.Generate(10, 1)
	s.PutBlock("f", 2, 3, rows)

	if !hasBlock(s, "f", 2, 3) {
		t.Fatal("block missing after Put")
	}
	got, err := s.GetBlock("f", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("len = %d, want 10", len(got))
	}
	if _, err := s.GetBlock("f", 2, 4); err == nil {
		t.Fatal("missing block read succeeded")
	}
	if hasBlock(s, "g", 2, 3) {
		t.Fatal("block present under another file")
	}
}

func TestStoreDropPartitionAndFile(t *testing.T) {
	s := newStore()
	rows := workload.Generate(5, 2)
	s.PutBlock("f", 0, 0, rows)
	s.PutBlock("f", 0, 1, rows)
	s.PutBlock("f", 1, 0, rows)
	s.PutBlock("g", 0, 0, rows)

	s.DropPartition("f", 0)
	if hasBlock(s, "f", 0, 0) || hasBlock(s, "f", 0, 1) {
		t.Fatal("DropPartition left blocks behind")
	}
	if !hasBlock(s, "f", 1, 0) || !hasBlock(s, "g", 0, 0) {
		t.Fatal("DropPartition dropped unrelated blocks")
	}

	s.DropFile("f")
	if hasBlock(s, "f", 1, 0) {
		t.Fatal("DropFile left a block behind")
	}
	if !hasBlock(s, "g", 0, 0) {
		t.Fatal("DropFile dropped another file's block")
	}
}

func TestStoreMapOutputSplitSlices(t *testing.T) {
	s := newStore()
	const reducers = 4
	buckets := make([][]workload.Record, reducers)
	rows := workload.Generate(200, 3)
	for _, r := range rows {
		red := reducerOfRecord(r, reducers)
		buckets[red] = append(buckets[red], r)
	}
	s.PutMapOutput(1, 0, 0, buckets)

	for red := 0; red < reducers; red++ {
		whole, err := s.MapOutputSlice(1, 0, 0, red, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		// The union of k split slices must equal the whole bucket exactly.
		const k = 3
		var merged []workload.Record
		for split := 0; split < k; split++ {
			part, err := s.MapOutputSlice(1, 0, 0, red, split, k)
			if err != nil {
				t.Fatal(err)
			}
			merged = append(merged, part...)
		}
		if !workload.DigestRecords(merged).Equal(workload.DigestRecords(whole)) {
			t.Fatalf("reducer %d: split union differs from whole bucket", red)
		}
	}

	if _, err := s.MapOutputSlice(2, 0, 0, 0, 0, 1); err == nil {
		t.Fatal("missing map output read succeeded")
	}
	if _, err := s.MapOutputSlice(1, 0, 0, reducers, 0, 1); err == nil {
		t.Fatal("out-of-range reducer read succeeded")
	}
}

func TestStoreDropMapOutputs(t *testing.T) {
	s := newStore()
	b := [][]workload.Record{workload.Generate(3, 4)}
	s.PutMapOutput(1, 0, 0, b)
	s.PutMapOutput(2, 0, 0, b)
	s.PutMapOutput(3, 1, 2, b)

	s.DropMapOutputs([]int{1, 3})
	if _, err := s.MapOutputSlice(1, 0, 0, 0, 0, 1); err == nil {
		t.Fatal("job 1 output survived drop")
	}
	if _, err := s.MapOutputSlice(3, 1, 2, 0, 0, 1); err == nil {
		t.Fatal("job 3 output survived drop")
	}
	if _, err := s.MapOutputSlice(2, 0, 0, 0, 0, 1); err != nil {
		t.Fatal("job 2 output dropped erroneously")
	}
}

func TestStoreStats(t *testing.T) {
	s := newStore()
	s.PutBlock("a", 0, 0, workload.Generate(7, 5))
	s.PutBlock("b", 0, 0, workload.Generate(3, 6))
	s.PutMapOutput(1, 0, 0, nil)
	st := s.Stats()
	if st.Blocks != 2 || st.BlockRecords != 10 || st.MapOutputs != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.Files) != 2 || st.Files[0] != "a" || st.Files[1] != "b" {
		t.Fatalf("files = %v", st.Files)
	}
}

func TestBlockDigestMatchesRecords(t *testing.T) {
	s := newStore()
	rows := workload.Generate(42, 7)
	s.PutBlock("f", 0, 0, rows)
	d, err := s.BlockDigest("f", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(workload.DigestRecords(rows)) {
		t.Fatal("digest mismatch")
	}
	if _, err := s.BlockDigest("f", 0, 1); err == nil {
		t.Fatal("digest of missing block succeeded")
	}
}
