// Functions only this package's tests call; nothing in the program does
// (the root package's exported-surface test keeps them out of the API).

package dmr

import (
	"rcmp/internal/core"
	"rcmp/internal/workload"
)

// StoreStats snapshots the worker's storage (tests, observability).
func (w *Worker) StoreStats() Stats { return w.store.Stats() }

func reducerOfRecord(r workload.Record, numReducers int) int {
	return core.ReducerOf(core.HashKey(workload.KeyBytes(r.Key)), numReducers)
}

func splitOfRecord(r workload.Record, splits int) int {
	return core.SplitOf(core.HashKey(workload.KeyBytes(r.Key)), splits)
}
