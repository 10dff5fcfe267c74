package experiments

import (
	"fmt"
	"strings"

	"rcmp/internal/analysis"
	"rcmp/internal/textplot"
)

// CostModels quantifies the Section III-B arguments with the paper's own
// measured anchors: the provisioning overhead replication adds to a cluster
// sized for a chain rate, and the replication-factor guessing game of
// Section V-B against RCMP's pay-per-failure recovery.
// The analytic models take no simulation input, so Config is accepted only
// for signature uniformity with the simulated figures.
func CostModels(Config) (*Result, error) {
	r := newResult("Section III-B cost models")
	var sb strings.Builder

	// Provisioning: the paper's 1:1:1 job; one third of I/O is output
	// writing, which replication multiplies.
	prov := analysis.ProvisioningInput{
		ChainsPerHour:      2,
		JobsPerChain:       7,
		BytesPerJob:        3 * 40e9, // STIC-scale 40 GB in/shuffle/out
		NodeIOBytesPerHour: 40e9 * 3, // a node sustains roughly one job volume per hour
		ReplWriteShare:     1.0 / 3.0,
	}
	var rows [][]string
	for _, repl := range []int{1, 2, 3} {
		nodes, err := prov.NodesNeeded(repl)
		if err != nil {
			return nil, err
		}
		over, err := prov.ProvisioningOverhead(repl)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			fmt.Sprintf("REPL-%d", repl),
			fmt.Sprintf("%d", nodes),
			fmt.Sprintf("+%.0f%%", over*100),
		})
		r.Values[fmt.Sprintf("nodes repl-%d", repl)] = float64(nodes)
	}
	sb.WriteString(textplot.Table("Provisioning for 2 chains/hour (Section III-B)",
		[]string{"strategy", "nodes needed", "vs REPL-1"}, rows))
	sb.WriteString("\n")

	// Guesswork: Fig 2 regime (failures rare) vs a failure-heavy regime.
	for _, reg := range []struct {
		name string
		mean float64
	}{
		{"Fig 2 regime (mean 0.2 failures/chain)", 0.2},
		{"failure-heavy (mean 2.0 failures/chain)", 2.0},
	} {
		dist, err := analysis.PoissonFailureDist(reg.mean, 6)
		if err != nil {
			return nil, err
		}
		g := analysis.GuessworkInput{
			FailureProb:            dist,
			BaseTotal:              100,
			ReplSlowdownPerReplica: 0.3, // Fig 8a
			RecomputePerFailure:    15,  // Fig 8b/8c recovery cost
			RestartPenalty:         250, // overwhelmed replication restarts the chain
		}
		rcmp, err := g.ExpectedRCMPTotal()
		if err != nil {
			return nil, err
		}
		var rows [][]string
		rows = append(rows, []string{"RCMP (no guess)", textplot.Num(rcmp)})
		for repl := 1; repl <= 4; repl++ {
			tot, err := g.ExpectedReplicationTotal(repl)
			if err != nil {
				return nil, err
			}
			rows = append(rows, []string{fmt.Sprintf("REPL-%d", repl), textplot.Num(tot)})
			r.Values[fmt.Sprintf("%s repl-%d", reg.name, repl)] = tot
		}
		best, _, err := g.BestReplicationFactor(4)
		if err != nil {
			return nil, err
		}
		r.Values[reg.name+" rcmp"] = rcmp
		r.Values[reg.name+" best factor"] = float64(best)
		sb.WriteString(textplot.Table(
			fmt.Sprintf("Expected chain total, %s (best fixed factor: %d)", reg.name, best),
			[]string{"strategy", "expected total"}, rows))
		sb.WriteString("\n")
	}

	r.Text = strings.TrimRight(sb.String(), "\n")
	return r, nil
}
