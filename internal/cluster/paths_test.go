package cluster

import (
	"testing"

	"rcmp/internal/des"
	"rcmp/internal/flow"
)

func TestShuffleUsesChargesDiskFraction(t *testing.T) {
	c := New(des.New(), STICConfig(1, 1))
	uses := c.ShuffleUses(1, 4)
	if len(uses) != 5 {
		t.Fatalf("remote shuffle crosses %d resources, want 5", len(uses))
	}
	f := c.Cfg.ShuffleDiskFactor
	if f == 0 {
		f = 0.25
	}
	if uses[0].R != c.Node(1).Disk || uses[0].Weight != f {
		t.Fatalf("src disk use %+v, want weight %v", uses[0], f)
	}
	if uses[4].R != c.Node(4).Disk || uses[4].Weight != f {
		t.Fatalf("dst disk use %+v, want weight %v", uses[4], f)
	}
	local := c.ShuffleUses(2, 2)
	if len(local) != 1 || local[0].Weight != 2*f {
		t.Fatalf("local shuffle uses %+v, want single disk at weight %v", local, 2*f)
	}
}

func TestShuffleDiskFactorConfigurable(t *testing.T) {
	cfg := STICConfig(1, 1)
	cfg.ShuffleDiskFactor = 1.0
	c := New(des.New(), cfg)
	if got := c.ShuffleUses(0, 1)[0].Weight; got != 1.0 {
		t.Fatalf("configured shuffle disk weight %v, want 1", got)
	}
}

func TestWriteUsesReplicaAmp(t *testing.T) {
	cfg := STICConfig(1, 1)
	cfg.ReplicaWriteAmp = 2.5
	c := New(des.New(), cfg)
	uses := c.WriteUsesScratch(0, 3)
	if uses[3].R != c.Node(3).Disk || uses[3].Weight != 2.5 {
		t.Fatalf("remote write dst disk %+v, want weight 2.5", uses[3])
	}
	// Local writes are sequential: no amplification.
	if got := c.WriteUsesScratch(2, 2)[0].Weight; got != 1 {
		t.Fatalf("local write weight %v, want 1", got)
	}
	// Zero amp defaults to 1 (no amplification).
	cfg.ReplicaWriteAmp = 0
	c = New(des.New(), cfg)
	if got := c.WriteUsesScratch(0, 3)[3].Weight; got != 1 {
		t.Fatalf("default amp weight %v, want 1", got)
	}
}

func TestNodeDiskScaleStraggler(t *testing.T) {
	cfg := STICConfig(1, 1)
	cfg.NodeDiskScale = map[int]float64{2: 0.25}
	c := New(des.New(), cfg)
	if got := c.Node(2).Disk.Capacity; got != cfg.DiskBW*0.25 {
		t.Fatalf("straggler disk %v, want quarter speed", got)
	}
	if got := c.Node(1).Disk.Capacity; got != cfg.DiskBW {
		t.Fatalf("healthy disk %v changed", got)
	}
}

func TestPenaltyCapWired(t *testing.T) {
	cfg := STICConfig(1, 1)
	cfg.DiskSeekPenalty = 0.5
	cfg.DiskPenaltyCap = 1.0
	c := New(des.New(), cfg)
	d := c.Node(0).Disk
	// At 100 concurrent flows the penalty is capped at 1.0: effective
	// throughput never drops below half of nominal.
	if got := d.Effective(100); got != cfg.DiskBW/2 {
		t.Fatalf("capped effective %v, want %v", got, cfg.DiskBW/2)
	}
}

func TestEffectiveUncappedWhenZero(t *testing.T) {
	r := &flow.Resource{Capacity: 100, SeekPenalty: 0.5}
	if got := r.Effective(3); got != 100/2.0 {
		t.Fatalf("uncapped effective(3) = %v, want 50", got)
	}
	r.PenaltyCap = 0.4
	if got := r.Effective(3); got != 100/1.4 {
		t.Fatalf("capped effective(3) = %v, want %v", got, 100/1.4)
	}
}
