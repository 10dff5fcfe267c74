package experiments

import (
	"testing"

	"rcmp/internal/failure"
)

// TestPinnedDigestBytes pins the hex of ConfigDigest and PlanDigest for
// every sweep dimension at its default and at a non-default value. The
// digests are the result cache's keys: a framing change that moved one
// would silently orphan every cached answer, so the bytes are pinned, not
// only their stability and sensitivity.
func TestPinnedDigestBytes(t *testing.T) {
	stic, err := failure.ParseSchedule("stic:1")
	if err != nil {
		t.Fatal(err)
	}
	pulses, err := failure.ParseSchedule("2@15,4@5x2")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key  string
		cfg  Config
		want string
	}{
		{"8b", Config{}, "15b8e8886cafba25bb999f2bd717fbd40f3ff30873ce4ca854ad9f2c469878ca"},
		{"8b", Config{Scale: ScaleQuick}, "5a3778db4fd2fcdbbcd16805aee72c69f192d766cbb00d047a81218f1c48edfc"},
		{"8b", Config{Seed: 7}, "a1cc6b3ee9ad1e4c0c8119a01a3528faa33de4f09cc7b0414647607e22ea0556"},
		{"8b", Config{Seed: -3}, "012cf8f2c585bbe19de0f7cfcb4fe2ec406f48506472df80dc305a9b6c28ffff"},
		{"8b", Config{FailureAt: 2}, "8ba3d1447513f1d5b7d0729dce607cf6bb709fd4efb42bca46f0e32c15e17d83"},
		{"12", Config{Schedule: stic}, "5f440a79bfcb85e93ce290cdeb87146834b47579301081500d25e3840d89e403"},
		{"12", Config{Schedule: pulses}, "2e8e7cb6ef84530ea5120c38a540be71d4a883289a59bfd9b36bbbb07af40e0c"},
		{"8b", Config{Nodes: 16}, "a82c42e4b20c7e6f41f152210bea55423abb5903ae38bbb30c94570dc8e99729"},
		{"multi-tenant", Config{Tenants: 3}, "b0ba1956565910f96553fb488aa0dda9b9bf9ea39b808ff0d21bca66f15970a1"},
		{"dag-recovery", Config{Speculation: true}, "701d862c561b2df708935f2466c7c42d089e07eefaaf3320a523314714c3b125"},
		{"8b", Config{Engine: EngineAnalytic}, "7df09db0cb9c8643e9ec4277238d8293c0d529a213f4065707aae261e94747d1"},
		{"weak-scaling", Config{Scale: ScaleQuick, Nodes: 131072, Engine: EngineAnalytic}, "0dfd2f14cdd780b308993c4aa288d4c3ac271a773db2e40f2a37a750b2b07eb7"},
		{"8b", Config{Scale: ScaleQuick, FailureAt: 2, Schedule: pulses}, "175de2927681ab4156a044a6ffc6333e8a315fe6b72c3b2c6f7ebb6c10c52c1b"},
		{"8b", Config{Scale: ScaleQuick, Seed: 1, FailureAt: 3, Schedule: stic, Nodes: 20, Tenants: 2, Speculation: true, Engine: EngineAnalytic}, "044391775e8b9a88481f4993caa6f913819626594fc49bb53898cefe622eb9b6"},
	} {
		if got := ConfigDigest(c.key, c.cfg); got != c.want {
			t.Errorf("ConfigDigest(%q, %+v) = %q, want %q", c.key, c.cfg, got, c.want)
		}
	}
	for _, c := range []struct {
		cfg      Config
		deadline PlanDeadline
		want     string
	}{
		{Config{Scale: ScaleQuick, Engine: EngineAnalytic}, 0, "2687fadc5982844105de39ee61455167c31823a58b6cb225b7ffb7de0eb326e6"},
		{Config{Scale: ScaleQuick, Nodes: 131072, Tenants: 4, Engine: EngineAnalytic}, 700, "cc9b122af5a713043dba513c1e257204cd0318b517af41dd326c7afa651389b2"},
		{Config{Scale: ScalePaper, Seed: 2, FailureAt: 3, Nodes: 64, Engine: EngineAnalytic}, 12.5, "0bf602c16d20e395079bc67b5b8cb40884d6d46b4dc395abcd24765aa91503a7"},
	} {
		if got := PlanDigest(c.cfg, c.deadline); got != c.want {
			t.Errorf("PlanDigest(%+v, %g) = %q, want %q", c.cfg, float64(c.deadline), got, c.want)
		}
	}
}
