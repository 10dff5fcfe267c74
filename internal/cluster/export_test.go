// Functions only this package's tests call; nothing in the program does
// (the root package's exported-surface test keeps them out of the API).

package cluster

import "rcmp/internal/flow"

// TransferUses returns the resource path for moving bytes from node src to
// node dst, reading from src's disk and writing to dst's disk.
//
// A local transfer (src == dst) touches the single disk twice: once for the
// read and once for the write, hence weight 2.
func (c *Cluster) TransferUses(src, dst int) []flow.Use {
	if src == dst {
		return []flow.Use{{R: c.nodes[src].Disk, Weight: 2}}
	}
	return []flow.Use{
		{R: c.nodes[src].Disk, Weight: 1},
		{R: c.nodes[src].Up, Weight: 1},
		{R: c.Core, Weight: 1},
		{R: c.nodes[dst].Down, Weight: 1},
		{R: c.nodes[dst].Disk, Weight: 1},
	}
}
