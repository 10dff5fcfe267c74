// Quickstart: run a small multi-job chain on the functional engine, kill a
// node mid-chain, let RCMP recover with reducer splitting, and verify that
// the recovered output is record-for-record identical to a failure-free run.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"rcmp/internal/engine"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	base := engine.Config{
		Nodes:          6,
		NumReducers:    6,
		Jobs:           5,
		RecordsPerNode: 500,
		Seed:           2026,
	}

	// Reference: the chain without failures.
	ref, err := engine.New(base)
	if err != nil {
		return err
	}
	if err := ref.Run(); err != nil {
		return err
	}
	want, err := ref.OutputDigests()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "failure-free chain complete:", len(want), "output partitions")

	// Same chain, but node 2 dies before job 4; RCMP recomputes the minimum
	// cascade with reducer splitting and the chain finishes.
	cfg := base
	cfg.Split = true
	cfg.Failures = []engine.Failure{{Before: 4, Node: 2}}
	e, err := engine.New(cfg)
	if err != nil {
		return err
	}
	if err := e.Run(); err != nil {
		return err
	}
	got, err := e.OutputDigests()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "recovered after failure: %d recovery episode(s), %d mappers and %d reducers recomputed\n",
		e.RecoveryEpisodes, e.RecomputedMappers, e.RecomputedReducers)

	for p := range want {
		if got[p] != want[p] {
			return fmt.Errorf("partition %d differs from the failure-free run", p)
		}
	}
	fmt.Fprintln(w, "output verified: identical to the failure-free run, partition by partition")
	return nil
}
