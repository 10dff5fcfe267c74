// Functions only this package's tests call; nothing in the program does
// (the root package's exported-surface test keeps them out of the API).

package dmr

// StoreStats snapshots the worker's storage (tests, observability).
func (w *Worker) StoreStats() Stats { return w.store.Stats() }
