package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// TestPinnedJSONReports pins the bytes rcmpsim -json writes for every sweep
// dimension at its default and at a non-default value: the exit code, the
// SHA-256 of stdout and the first stderr line. The report is what scripts
// and the sweep server's stream:false body are compared against, so a
// refactor of how flags become jobs must leave every byte in place.
func TestPinnedJSONReports(t *testing.T) {
	for _, c := range []struct {
		args   string
		code   int
		sha    string
		stderr string
	}{
		{"-fig cost", 0, "b792106dea2c3a41c60b012e84a4384946a14d353c3328b3e2931a13c060eb25", ""},
		{"-fig cost -quick", 0, "6d1c233bdd4c212e94640c258c1df4ec9326d3e71627e9f35ae79afcb55c1655", ""},
		{"-fig 8b -quick -seed 1", 0, "421a1423c3d4b1ef740fda8f9cd2c98df97654fbba78bb9338979a3360aa0e6a", ""},
		{"-fig 8b -quick -seeds 0,2", 0, "810af6f7ab547a1ce68d021e20d551d8e380141f33494499140b2bfbad366adb", ""},
		{"-fig 8b -quick -failure-at 2", 0, "1601c5c45fe9346751911ebbfe88c49cd68c03ffb9fba8797308ab97cfb99b0c", ""},
		{"-fig 12 -quick -schedule stic:3", 0, "c0e3f15affccc1f4dc3dd456aadc9de535ce3efe43a8c1dbe833ce223d3f9883", ""},
		{"-fig 12 -quick -schedule stic:1", 1, "980ab97975c8ef53644a5e46092acafb9a4f54eaf6da99806b5c176d76af0070", "rcmpsim: Fig12/quick/sched=STIC/s1: experiment SLOTS 2-2, STIC: core: original input partition 0 of \"input\" lost; computation unrecoverable"},
		{"-fig 12 -quick -schedule 2@15,3@20", 0, "96b81ad1cd4b288b1ad7a42786369e1a984d6f605608857a7d7a2158426a3831", ""},
		{"-fig 8b -quick -nodes 16", 0, "a1685e21dfc29d16d3f86cd29ca4f7f4763fefaf135bf34d5963def6b347b3b0", ""},
		{"-fig weak-scaling -quick -engine analytic -nodes 131072", 0, "0f0789f5cf3f71b76d38a494cac88d2854444b20779a4e5b789f379d5df09a4a", ""},
		{"-fig 8b -quick -engine analytic -seed-set 2", 0, "71eb4421cc896c9433e7aee791a1515eb1d39024a5634c3780cc7a021085a2ec", ""},
		{"-fig multi-tenant -quick -tenants 3", 0, "ad40a19e103557850c25b5743340d80a721e70208ced79ed33867f16fdfc4ec6", ""},
		{"-fig 8b -quick -tenants 3", 1, "f0ff73b654b26981c65d5b3a7f09ad431260d7804887193ac3274c02e26cbce2", "rcmpsim: Fig8b/quick/tenants=3: experiments: Fig8b is single-tenant; Tenants=3 only applies to multi-tenant experiments"},
		{"-fig dag-recovery -quick -speculation", 0, "6943c5d6b16decafbd3ba529de384513b54c1ef0726dad34b471de63d20a29bd", ""},
		{"-fig 8b -quick -failure-at 2 -schedule 2@15", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "rcmpsim: -failure-at and -schedule are mutually exclusive"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append(strings.Fields(c.args), "-json", "-parallel", "2"), &stdout, &stderr)
		sum := sha256.Sum256(stdout.Bytes())
		sha := hex.EncodeToString(sum[:])
		first, _, _ := strings.Cut(stderr.String(), "\n")
		if code != c.code || sha != c.sha || first != c.stderr {
			t.Errorf("%s: got %d, %q, %q; want %d, %q, %q", c.args, code, sha, first, c.code, c.sha, c.stderr)
		}
	}
}
