// Functions only this package's tests call; nothing in the program does
// (the root package's exported-surface test keeps them out of the API).

package flow

// Rate returns the flow's current max-min fair rate in bytes/sec.
func (f *Flow) Rate() float64 {
	if f.net == nil {
		return f.rate
	}
	f.net.settle()
	if f.net.classAcct && f.tr != nil && f.mindex >= 0 {
		return f.tr.rate
	}
	return f.rate
}

// ActiveFlows returns the number of in-flight flows.
func (n *Network) ActiveFlows() int { return len(n.flows) }

// Components returns the number of connected components currently tracked,
// for tests and diagnostics.
func (n *Network) Components() int { return len(n.comps) }
