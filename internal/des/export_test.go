// Functions only this package's tests call; nothing in the program does
// (the root package's exported-surface test keeps them out of the API).

package des

// Pending returns the number of queued (uncancelled) events in O(1).
// Cancel removes events from their tier eagerly and Step pops fired ones,
// so every queued event is live and the maintained count IS the pending
// count — no separately drifting counter, no scan.
func (s *Simulator) Pending() int { return s.count }
