package experiments

import (
	"fmt"
	"testing"
)

// goldenAnalyticDigests pins every registered experiment's output on the
// analytic engine at quick scale (each spec's default seed), plus the
// capacity planner at two cluster sizes ("plan@<nodes>"). The twin's run
// sequence is decided by core.Cursor and its pricing by closed forms; a
// change to either that moves an answer must update this table and say
// which values moved and why.
var goldenAnalyticDigests = map[string]string{
	"2":                    "bdf581e0592816d03e6bba99d500c48edcb83316dc14e18a4e237399969237fd",
	"8a":                   "264c835165f7cf6dc2a795f317d897c2bf31a743a8363a1ac5ecc7fe77928738",
	"8b":                   "4e7fe2a0089445d21b4b82a23b11551918f6f58667bee95b599aa8b236077870",
	"8c":                   "4c1112ff377c2c5159ecc8fc029cfd69e7a03011798c888633328c54c2b63ecd",
	"9":                    "8cbccc01b0a125104906754abd2960ed9d34483af8b812b1c0a22eea6e14cc1d",
	"10":                   "73a8bb7b6c1ab945cdd2a2284b135f58b9126aac65ebf72952baf513d8ffc778",
	"11":                   "f231d62e3b362b088b2cfe3d0ec6587dfccdd2bade4456700b13a5061bda06df",
	"12":                   "3fe37e10d621f772e713c3366e86d3201ac9e0450ed4387ef332e57f6efd3d0c",
	"13":                   "0f04974cda9281488142f33f7fb3a9a8063a7cfbace7076d294c30465ee8650c",
	"14":                   "8cdc69f7bc207b64f66ff8208786b4353f6421b808ca3dc14179bf669e9aca1f",
	"hybrid":               "349ffa76f4a43cbeb55a685fcf1d8265ec3793ec8a4498d035b42e44cc07931a",
	"double-failure":       "e0121ede464b12c19170193326657306515413ba1d4b1fc4547a484f0909ecbd",
	"trace-replay":         "7d5269ce61b3c1148933a157f8c741c547f1ff66bf48c65b9ab7dac1c772d752",
	"weak-scaling":         "3b554a93f4d161ab271c5ce6fd83852ef982f7548b245efe36fd65b770c50223",
	"dag-recovery":         "6c06d5b203b0b761292ad31f8c22101d46a579efbcbdf223173e9e0b3fe88158",
	"multi-tenant":         "f5bdfda6e4daa9dfb5abf7d81e703c0ea8f967d3ae0fa26b7340cb07eb8293cd",
	"ablation-scatter":     "5b0b58e70d487929526b9fb1a808841d86fb0d2717ccd338eb3ec37edd14198c",
	"ablation-ratio":       "951beac0429ae6cec91b1f5afcdbbf3b9829255314e0b4d0dad81c97d28989c9",
	"ablation-reuse":       "af58694f24d52e2ebc0590f3cad2a4a379f5e1be7b77fb7bb93b62b3da7ab251",
	"ablation-timeout":     "7dbfe96331464a7a66e1c0c5ed61f922bd2679b49560a77691afa21e410ffee3",
	"ablation-ioratio":     "9472e9c3e65a508f15a60f8b4e07ed97fd90f42f5adcfb1c2097eeac3875d38b",
	"ablation-reclaim":     "b92ecb6db430a27bdb18f1f2c4a9100d3486477f51b2b3af335ec1eede10f9f6",
	"ablation-speculation": "c46ac82ba689777ac75ee133fe45e4ac10cfc9f4f91d4e9977a224a1972c59fc",
	"ablation-locality":    "0a2e4fe2bd975ce0541196926445285bb1acac1ef3e73e79a0a8e7b886b188bc",
	"cost":                 "e00e71af610bdf65cf8405593b485a697e05a09dfcee64446b379877ee8eb50f",
	"plan@1024":            "5acb1969827d7214b9d22d32b2988a6ce4c17bce108622cc931180b1b796fd8c",
	"plan@131072":          "ef9e53e278d50458c61cba59c9ed5ce3ae6008de7e5727692cb8170c2c8def1f",
}

// TestGoldenAnalyticDigests regenerates every registered experiment on the
// analytic engine, and CapacityPlan at 1 024 and 131 072 nodes, and
// compares each output digest against goldenAnalyticDigests.
func TestGoldenAnalyticDigests(t *testing.T) {
	got := map[string]string{}
	for _, sp := range Registry() {
		got[sp.Key] = resultDigest(runOK(t, sp.Run, Config{Scale: ScaleQuick, Seed: sp.Seed, Engine: EngineAnalytic}))
	}
	for _, nodes := range []int{1024, 131072} {
		res, err := CapacityPlan(Config{Scale: ScaleQuick, Nodes: nodes}, 0)
		if err != nil {
			t.Fatalf("plan@%d: %v", nodes, err)
		}
		got[fmt.Sprintf("plan@%d", nodes)] = resultDigest(res)
	}
	for key := range goldenAnalyticDigests {
		if _, ok := got[key]; !ok {
			t.Errorf("golden analytic digest for unknown key %q", key)
		}
	}
	for key, g := range got {
		want, ok := goldenAnalyticDigests[key]
		if !ok {
			t.Errorf("%s: no golden analytic digest; add %q", key, g)
			continue
		}
		if g != want {
			t.Errorf("%s: analytic output digest drifted: got %s, want %s", key, g, want)
		}
	}
}
