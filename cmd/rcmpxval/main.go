// Command rcmpxval cross-validates the two RCMP execution engines: one
// shared job spec runs through the real distributed runtime (internal/dmr,
// in-process workers over loopback TCP) and through the flow-level
// simulator, swept across failure offsets. The recovery decisions — which
// jobs recompute, which partitions regenerate with how many splits, which
// surviving map outputs are reused — must be identical; wall-clock
// slowdowns must agree within a tolerance band; and the runtime's output
// must stay byte-identical to its failure-free baseline. See
// docs/crossval.md for the methodology.
//
// Usage:
//
//	rcmpxval                                  # defaults: 4 nodes, 3 jobs, kill in run 2 at 0.25 and 0.5
//	rcmpxval -run 3 -offsets 0.2,0.4,0.6      # sweep three offsets in run 3
//	rcmpxval -split -chaos -retries 3         # reducer splitting, chaos transport on the dmr side
//	rcmpxval -json                            # machine-readable report
//
// Exit status 1 when the engines diverge on any case.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"rcmp/internal/xval"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind main: it parses args, runs the sweep and
// writes the report to stdout, and returns the exit code — 0 when the
// engines agree on every case, 1 when they diverge, 2 on a usage or spec
// error.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("rcmpxval", flag.ContinueOnError)
	flags.SetOutput(stderr)
	nodes := flags.Int("nodes", 4, "cluster size (simulator nodes / dmr workers)")
	jobs := flags.Int("jobs", 3, "chain length")
	reducers := flags.Int("reducers", 0, "reducers per job (0 = one per node)")
	blocks := flags.Int("blocks", 2, "input blocks per partition (= map tasks per partition)")
	blockRecords := flags.Int("block-records", 40, "records per dmr block")
	slots := flags.Int("slots", 4, "task slots per node")
	repl := flags.Int("repl", 3, "input replication factor")
	split := flags.Bool("split", false, "split recomputed reducers over surviving nodes")
	splitRatio := flags.Int("split-ratio", 0, "split count (0 = one per surviving node)")
	scatter := flags.Bool("scatter", false, "scatter recomputed reducer output instead of splitting")
	noReuse := flags.Bool("no-map-reuse", false, "re-run every mapper of a recomputed job")
	atRun := flags.Int("run", 2, "1-based run the failure pulses land in")
	offsets := flags.String("offsets", "0.25,0.5", "comma-separated kill offsets as fractions of the run")
	detectFrac := flags.Float64("detect-frac", 0, "detection timeout as a fraction of the shortest run (0 = default 0.3)")
	band := flags.Float64("band", 0, "slowdown-ratio tolerance band (0 = default 4)")
	seed := flags.Int64("seed", 7, "victim-selection and workload seed")
	taskDelay := flags.Duration("task-delay", 0, "per-task sleep on dmr workers (0 = default 150ms)")
	chaos := flags.Bool("chaos", false, "interpose the fault-injecting transport on the dmr side")
	chaosSeed := flags.Int64("chaos-seed", 1, "chaos fault-stream seed")
	drop := flags.Float64("drop", 0, "chaos write-drop probability")
	retries := flags.Int("retries", 0, "RPC retry budget under chaos (0 = default 3)")
	asJSON := flags.Bool("json", false, "emit the report as JSON")
	if err := flags.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "rcmpxval:", err)
		return code
	}
	// A positional argument ends flag parsing: every flag after it would
	// be silently ignored.
	if flags.NArg() > 0 {
		return fail(2, fmt.Errorf("unexpected argument %q", flags.Arg(0)))
	}

	fracs, err := parseFracs(*offsets)
	if err != nil {
		return fail(2, err)
	}

	spec := xval.Spec{
		Nodes:              *nodes,
		Jobs:               *jobs,
		Reducers:           *reducers,
		BlocksPerPartition: *blocks,
		BlockRecords:       *blockRecords,
		Slots:              *slots,
		InputRepl:          *repl,
		Split:              *split,
		SplitRatio:         *splitRatio,
		ScatterOnly:        *scatter,
		NoMapOutputReuse:   *noReuse,
		Seed:               *seed,
		TaskDelay:          *taskDelay,
		DetectFrac:         *detectFrac,
		Band:               *band,
		Chaos:              *chaos,
		ChaosSeed:          *chaosSeed,
		DropProb:           *drop,
		Retries:            *retries,
	}
	start := time.Now()
	rep, err := xval.Sweep(spec, xval.OffsetSweep(*atRun, fracs))
	if err != nil {
		return fail(2, err)
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return fail(2, err)
		}
	} else {
		fmt.Fprint(stdout, rep.Format())
		fmt.Fprintf(stdout, "(%d cases in %.1fs)\n", len(rep.Cases), time.Since(start).Seconds())
	}
	if !rep.OK {
		return 1
	}
	return 0
}

func parseFracs(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad offset %q: %w", part, err)
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no offsets given")
	}
	return out, nil
}
