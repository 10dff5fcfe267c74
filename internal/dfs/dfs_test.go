package dfs

import (
	"testing"
	"testing/quick"
)

func nodes(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// set writes partition idx with a single writer, like a whole reducer.
func set(t testing.TB, fs *FS, name string, idx int, size int64, writer, repl int, cand []int) *Partition {
	t.Helper()
	p, err := fs.SetPartition(name, idx, size, [][]int{fs.PlanReplicas(writer, repl, cand)})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCreateDelete(t *testing.T) {
	fs := New(256)
	if _, err := fs.Create("a", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("a", 4); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	if _, err := fs.Create("b", 0); err == nil {
		t.Fatal("zero-partition create succeeded")
	}
	if fs.File("a") == nil {
		t.Fatal("file missing after create")
	}
	if fs.File("a").Complete() {
		t.Fatal("fresh file reports complete")
	}
	fs.Delete("a")
	if fs.File("a") != nil {
		t.Fatal("file present after delete")
	}
	fs.Delete("a") // no-op
}

func TestSetPartitionBlocks(t *testing.T) {
	fs := New(256)
	fs.Create("f", 1)
	p := set(t, fs, "f", 0, 1000, 0, 1, nodes(4))
	if len(p.Blocks) != 4 {
		t.Fatalf("1000 bytes at block size 256 -> %d blocks, want 4", len(p.Blocks))
	}
	if p.Size() != 1000 {
		t.Fatalf("partition size %d, want 1000", p.Size())
	}
	if p.Blocks[3].Size != 1000-3*256 {
		t.Fatalf("tail block size %d", p.Blocks[3].Size)
	}
	if fs.File("f").Size() != 1000 {
		t.Fatalf("file size %d", fs.File("f").Size())
	}
	if !fs.File("f").Complete() {
		t.Fatal("file with all partitions written not complete")
	}
}

func TestSetPartitionErrors(t *testing.T) {
	fs := New(256)
	fs.Create("f", 2)
	if _, err := fs.SetPartition("missing", 0, 10, [][]int{{0}}); err == nil {
		t.Fatal("write to missing file succeeded")
	}
	if _, err := fs.SetPartition("f", 5, 10, [][]int{{0}}); err == nil {
		t.Fatal("write to out-of-range partition succeeded")
	}
	if _, err := fs.SetPartition("f", 0, 10, nil); err == nil {
		t.Fatal("write with no replica sets succeeded")
	}
	if _, err := fs.SetPartition("f", 0, 10, [][]int{{}}); err == nil {
		t.Fatal("write with empty replica set succeeded")
	}
}

func TestOutOfOrderWrites(t *testing.T) {
	fs := New(256)
	fs.Create("f", 3)
	set(t, fs, "f", 2, 10, 0, 1, nodes(2))
	set(t, fs, "f", 0, 10, 1, 1, nodes(2))
	if fs.PartitionAvailable("f", 1) {
		t.Fatal("unwritten partition reported available")
	}
	set(t, fs, "f", 1, 10, 0, 1, nodes(2))
	if !fs.File("f").Complete() {
		t.Fatal("file not complete after writing all partitions")
	}
}

func TestPlanReplicasWriterFirstDistinct(t *testing.T) {
	fs := New(1 << 20)
	got := fs.PlanReplicas(3, 3, nodes(6))
	if got[0] != 3 {
		t.Fatalf("first replica %d, want writer 3", got[0])
	}
	if len(got) != 3 {
		t.Fatalf("%d replicas, want 3", len(got))
	}
	seen := map[int]bool{}
	for _, r := range got {
		if seen[r] {
			t.Fatalf("duplicate replica node %d in %v", r, got)
		}
		seen[r] = true
	}
}

func TestPlanReplicasSpreads(t *testing.T) {
	fs := New(1 << 20)
	counts := map[int]int{}
	for i := 0; i < 12; i++ {
		rs := fs.PlanReplicas(0, 2, nodes(4))
		counts[rs[1]]++
	}
	for n := 1; n < 4; n++ {
		if counts[n] != 4 {
			t.Fatalf("node %d got %d remote replicas, want 4 (even spread): %v", n, counts[n], counts)
		}
	}
}

func TestSplitSpreadPlacement(t *testing.T) {
	// A partition written by 3 splits deals its blocks round-robin across
	// the split writers.
	fs := New(100)
	fs.Create("f", 1)
	sets := [][]int{{1}, {2}, {3}}
	p, err := fs.SetPartition("f", 0, 600, sets)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Blocks) != 6 {
		t.Fatalf("%d blocks, want 6", len(p.Blocks))
	}
	for i, b := range p.Blocks {
		want := sets[i%3][0]
		if b.Replicas[0] != want {
			t.Fatalf("block %d on node %d, want %d", i, b.Replicas[0], want)
		}
	}
}

func TestFailNodeSingleReplica(t *testing.T) {
	fs := New(1 << 20)
	fs.Create("out", 4)
	for i := 0; i < 4; i++ {
		set(t, fs, "out", i, 100, i, 1, nodes(4))
	}
	lost := fs.FailNode(2)
	if len(lost) != 1 || lost[0].Partition != 2 || lost[0].File != "out" {
		t.Fatalf("lost = %+v, want out/p2", lost)
	}
	if fs.PartitionAvailable("out", 2) {
		t.Fatal("lost partition reported available")
	}
	if !fs.PartitionAvailable("out", 1) {
		t.Fatal("healthy partition reported lost")
	}
	if again := fs.FailNode(2); again != nil {
		t.Fatalf("second FailNode returned %+v", again)
	}
}

func TestFailNodeWithReplicationSurvives(t *testing.T) {
	fs := New(1 << 20)
	fs.Create("out", 4)
	for i := 0; i < 4; i++ {
		set(t, fs, "out", i, 100, i, 2, nodes(4))
	}
	lost := fs.FailNode(1)
	if len(lost) != 0 {
		t.Fatalf("repl-2 file lost partitions on single failure: %+v", lost)
	}
	locs := fs.BlockLocations("out", 1)
	second := locs[0][0]
	lost = fs.FailNode(second)
	found := false
	for _, l := range lost {
		if l.Partition == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("killing both replica holders did not lose p1: %+v", lost)
	}
}

func TestLostPartitionsAccumulate(t *testing.T) {
	fs := New(1 << 20)
	fs.Create("a", 3)
	fs.Create("b", 3)
	for i := 0; i < 3; i++ {
		set(t, fs, "a", i, 10, i, 1, nodes(3))
		set(t, fs, "b", i, 10, i, 1, nodes(3))
	}
	fs.FailNode(0)
	fs.FailNode(1)
	lost := 0
	for _, name := range []string{"a", "b"} {
		for i := 0; i < 3; i++ {
			if !fs.PartitionAvailable(name, i) {
				lost++
			}
		}
	}
	if lost != 4 { // a/p0, a/p1, b/p0, b/p1
		t.Fatalf("lost %d partitions, want 4", lost)
	}
}

func TestOverwriteAfterRecompute(t *testing.T) {
	fs := New(1 << 20)
	fs.Create("out", 1)
	set(t, fs, "out", 0, 100, 0, 1, nodes(4))
	fs.FailNode(0)
	if fs.PartitionAvailable("out", 0) {
		t.Fatal("partition should be lost")
	}
	set(t, fs, "out", 0, 100, 1, 1, []int{1, 2, 3})
	if !fs.PartitionAvailable("out", 0) {
		t.Fatal("rewritten partition not available")
	}
	locs := fs.BlockLocations("out", 0)
	if locs[0][0] != 1 {
		t.Fatalf("rewritten partition on node %d, want 1", locs[0][0])
	}
}

func TestBlockLocationsSkipDead(t *testing.T) {
	fs := New(1 << 20)
	fs.Create("f", 1)
	set(t, fs, "f", 0, 100, 0, 2, nodes(3))
	before := fs.BlockLocations("f", 0)
	if len(before[0]) != 2 {
		t.Fatalf("live replicas %v, want 2", before[0])
	}
	fs.FailNode(0)
	after := fs.BlockLocations("f", 0)
	if len(after[0]) != 1 || after[0][0] == 0 {
		t.Fatalf("live replicas after failure %v", after[0])
	}
	if fs.BlockLocations("missing", 0) != nil {
		t.Fatal("locations of missing file not nil")
	}
}

func TestEmptyPartitionGetsMetadataBlock(t *testing.T) {
	fs := New(1 << 20)
	fs.Create("f", 1)
	p := set(t, fs, "f", 0, 0, 0, 1, nodes(2))
	if len(p.Blocks) != 1 || p.Blocks[0].Size != 0 {
		t.Fatalf("empty partition blocks = %+v", p.Blocks)
	}
	if !fs.PartitionAvailable("f", 0) {
		t.Fatal("empty written partition should be available")
	}
}

// Property: replication r tolerates any r-1 node failures with no data loss.
func TestReplicationToleranceProperty(t *testing.T) {
	check := func(seed uint8, repl uint8) bool {
		r := int(repl)%3 + 1 // 1..3
		n := 6
		fs := New(1 << 20)
		fs.Create("f", 8)
		for i := 0; i < 8; i++ {
			writer := (int(seed) + i) % n
			if _, err := fs.SetPartition("f", i, 100, [][]int{fs.PlanReplicas(writer, r, nodes(n))}); err != nil {
				return false
			}
		}
		for k := 0; k < r-1; k++ {
			fs.FailNode((int(seed) + k*2) % n)
		}
		for i := 0; i < 8; i++ {
			if !fs.PartitionAvailable("f", i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadBlockSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}
