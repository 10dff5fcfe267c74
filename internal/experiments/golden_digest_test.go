package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// goldenDigests pins a SHA-256 digest of every registered experiment's full
// output (figure text plus all Values at full float precision) at quick
// scale with each spec's default seed.
//
// These digests were captured from the pre-refactor global-rebalance
// simulator and held byte-for-byte through the incremental flow core, the
// jobRun decomposition and the shuffle-fetch coalescing — they are the
// determinism contract of the simulation stack. A change here means the
// simulator's observable behaviour changed, not just its speed; that is
// sometimes intentional (AblationIORatio below was re-modeled onto a single
// representative job, so its digest is from the re-modeled form), but it
// must always be a conscious, documented decision.
var goldenDigests = map[string]string{
	"2":                    "bdf581e0592816d03e6bba99d500c48edcb83316dc14e18a4e237399969237fd",
	"8a":                   "cd71bb03ccce3b9e7c31dd4505e3b5a92a3af55031bd39eb36dcd79f340631f0",
	"8b":                   "743e30ee7fdb08f02e7c8654d8a46a14694d1ef0f3324be8a0adc3321b5be080",
	"8c":                   "0786c682a0f65cf3b3c3a7592bb1c019160d4b4fa31fcc0335dc1b267b503b03",
	"9":                    "8550e52539b87d3e76bb1c28660cfde616f1bad22e447a4c58ecaa4b4a142eca",
	"10":                   "2b81219c30226d011fe71f90ca3c7ddf25c815c63c4838e35a6706c00ff147f0",
	"11":                   "7c2b6f1fb07f53b201e6747e919d74eb6bbccbe85b5bc34f874c4fe718300a90", // re-baselined: quick Fig11 simulates the node counts on its x-axis
	"12":                   "fa07612c8674913073dc51709615924da6ac1bfa9b4698ceafe33a94acfb1d29",
	"13":                   "e88346f9e2ae3c508206e07717da67abc45f194c0f295164bd065a44d88f7104",
	"14":                   "21653678505042b7e37488635960378fea5704fc4032d3936494e742802777dc",
	"hybrid":               "349ffa76f4a43cbeb55a685fcf1d8265ec3793ec8a4498d035b42e44cc07931a",
	"double-failure":       "5d0559b4664ae88c86eecb15801c1a1e6e5f98e6faef13882747fdf5a1a8994b", // new in PR 3: schedule engine
	"trace-replay":         "bd5a8028e978bc27a0bc3deb672e85c2308c3791137b3a5d63f78ea06d9790d2", // new in PR 3: schedule engine
	"weak-scaling":         "0a30eaa77f06d44d68ead33fdf61ae69cdc12d84cd5d2eeb1e80d1de09eeddd5", // new in PR 5: scaling benchmark tier
	"dag-recovery":         "7bb641d855961f70f4dbfe4229bb4ded7cd82715c9629ee430880e87f9833924", // new in PR 8: DAG job graphs
	"multi-tenant":         "a982155cb2e99671617e78380a540755e914ae4bfe409f04716917af408add80", // new in PR 8: shared-cluster sessions
	"ablation-scatter":     "19620a0141b6101b6d236ee386fe4a25173126204908dfa4a2d1994d7177b3a9",
	"ablation-ratio":       "60e1310feca48e568327211feceb2bdcaac91807f0b7de133da758d0ebf97ea2",
	"ablation-reuse":       "9ce612f882fb1a2df8592e409be5d6481340ebf02725e3029d0b85912213a692",
	"ablation-timeout":     "a02b3e0b703370041cc209acf8425db1d508343503e4b4b717535568e11b7f6e",
	"ablation-ioratio":     "f6e58f049214e6c8fdbb37804fd558cb7f7d8d6fca6c8c730a0388b7989be053", // re-modeled: single representative job (PR 2)
	"ablation-reclaim":     "b92ecb6db430a27bdb18f1f2c4a9100d3486477f51b2b3af335ec1eede10f9f6",
	"ablation-speculation": "975fbfe12c1d9ff271f397e2b15efe57a2fb6ac64c01409c49e739e5fd441d3c",
	"ablation-locality":    "db09369123e57aa83385dbc4b6aec77360e2a7d88afa052bc6cdfba79e78c402",
	"cost":                 "e00e71af610bdf65cf8405593b485a697e05a09dfcee64446b379877ee8eb50f",
}

// goldenPaperDigests is the same contract at paper scale (each spec's
// default seed): the output bench/'s figs_paper workload checks every pass
// against. TestGoldenPaperDigests holds it equal to that workload's
// committed reference, so the two cannot drift apart.
var goldenPaperDigests = map[string]string{
	"2":                    "bdf581e0592816d03e6bba99d500c48edcb83316dc14e18a4e237399969237fd",
	"8a":                   "fecfd54c5a2e2d384898ad931105d5ee2263eed6cb933459837108c5195e6576",
	"8b":                   "6c3daa669f169ad40bd2999fd17b5187ae6d46c6d93bd60498421a48d91a77b4",
	"8c":                   "6aa9b924175d55bd0ed1cabcc0b82614421c59259d3dca803c0af866ce9ae254",
	"9":                    "2d00c473b4268fa874b0fcb9cc0478c1f101e598bb788f5dc4bbfe3b5200e980",
	"10":                   "a7888cc86962b775641fbe1b498aa8b6e8698cfcb9eae0261a7cc97f68dd924b",
	"11":                   "336842630bf1ef9f68295f6b310a63f1e241be32ee062de43de996ada48608e0",
	"12":                   "a2e1ac752c5e7edbe6a5c765ec512f32dc61701b415599ea36f12df9aefaf005",
	"13":                   "ceee78847142fd85a3853c878089b569fd8d5270d1af5d045b79df19081d5c8f",
	"14":                   "7c65231732be31a9b000bb36d92e5c4d75b804da066218fb4dcde51096eb8e03",
	"hybrid":               "6b4642941069c1a538aa45a84e96ec97c0506120f31d57e747fdacd561c1e6d4",
	"double-failure":       "6006063a2570e364b61af2382bc7c6c840ec2430d1b803b0be907c771754b978",
	"trace-replay":         "5c1c1a9ad5060698bbbfa24776b4a5db7220368bc7a8814bec9552be77ec5b4b",
	"weak-scaling":         "f4680c2c4d0c7870b7ff66b4b0862781c67aa708d50a35e12e73b2f80b4645bf",
	"dag-recovery":         "69dcd2d1c1dfa807b88a8d8a9d2c7fafcb134abb5388c0899e83680757828a13",
	"multi-tenant":         "96d20c5f3c7399cd5a005faa0797604be4e85354199f748f39401efa85745f94",
	"ablation-scatter":     "ed2b6f8088d6c60afa63daf7ec8a4c60db817342da3029cfb4c6770b510b38be",
	"ablation-ratio":       "9a068f048fde980eaf65febf8413d0ed651035efe19d36e7ca7b4ca3d4fa74e3",
	"ablation-reuse":       "962a54e43e152129114c0d4c6828539b9514d9747ee46b95dbc8fb863f38870d",
	"ablation-timeout":     "71cf49311a8897492ba7106be25e379650cd0c27ac9e09d060b3031fa2fe81c6",
	"ablation-ioratio":     "cd28f45b4e8525c9a8e95669539ac001700c6091f58ef2c30feeea750258045e",
	"ablation-reclaim":     "b92ecb6db430a27bdb18f1f2c4a9100d3486477f51b2b3af335ec1eede10f9f6",
	"ablation-speculation": "a9778519dcdd88703e53477c04148255448fb90e077ba9775bd516939b3c23bf",
	"ablation-locality":    "c4ed8f80ccaf20ac0e837575cfbcf0ead46ce11d2ee9105370007b7bcdab27b8",
	"cost":                 "e00e71af610bdf65cf8405593b485a697e05a09dfcee64446b379877ee8eb50f",
}

// resultDigest hashes the complete observable output of one experiment:
// the rendered figure text and every value at full float64 precision, so
// even a one-ulp drift in a simulated timestamp is caught.
func resultDigest(res *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n", res.Name, res.Text)
	keys := make([]string, 0, len(res.Values))
	for k := range res.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%v\n", k, res.Values[k])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGoldenDigests regenerates every registered experiment at quick scale
// and compares against the pinned digests.
func TestGoldenDigests(t *testing.T) {
	checkGoldenDigests(t, ScaleQuick, goldenDigests)
}

// TestGoldenPaperDigests regenerates every registered experiment at paper
// scale and compares against goldenPaperDigests, which must equal bench/'s
// figs_paper reference (read here, never written).
func TestGoldenPaperDigests(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "bench", "ref", "figs_paper.seed0.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ref map[string]string
	if err := json.Unmarshal(b, &ref); err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(ref, goldenPaperDigests) {
		t.Errorf("goldenPaperDigests differs from bench/ref/figs_paper.seed0.json")
	}
	checkGoldenDigests(t, ScalePaper, goldenPaperDigests)
}

// checkGoldenDigests runs every registered experiment at scale with its
// default seed and compares each output digest against want.
func checkGoldenDigests(t *testing.T, scale Scale, want map[string]string) {
	for _, sp := range Registry() {
		sp := sp
		t.Run(sp.Key, func(t *testing.T) {
			digest, ok := want[sp.Key]
			if !ok {
				t.Fatalf("experiment %q has no golden digest; run the digest harness and add one", sp.Key)
			}
			got := resultDigest(runOK(t, sp.Run, Config{Scale: scale, Seed: sp.Seed}))
			if got != digest {
				t.Errorf("output digest drifted:\n  got  %s\n  want %s\n"+
					"The simulation produced different bytes for a fixed seed. If this is an intentional "+
					"behaviour change, update the digest and document the change; otherwise the determinism "+
					"contract is broken.", got, digest)
			}
		})
	}
	// The registry and the golden set must stay in lockstep.
	for key := range want {
		if _, ok := Lookup(key); !ok {
			t.Errorf("golden digest for unknown experiment %q", key)
		}
	}
}

// TestGoldenDigestsStableAcrossRuns guards the weaker (but load-bearing)
// property used by the parallel runner: running the same spec twice in one
// process yields identical bytes.
func TestGoldenDigestsStableAcrossRuns(t *testing.T) {
	sp, ok := Lookup("8b")
	if !ok {
		t.Fatal("spec 8b missing")
	}
	cfg := Config{Scale: ScaleQuick, Seed: 3}
	if a, b := resultDigest(runOK(t, sp.Run, cfg)), resultDigest(runOK(t, sp.Run, cfg)); a != b {
		t.Fatalf("same config produced different output: %s vs %s", a, b)
	}
}
