package core

import "hash/fnv"

// HashKey hashes a record key to the 64-bit space used by the partitioner.
// Both engines (functional and simulated) route keys with this hash so the
// split-correctness reasoning is identical in both.
func HashKey(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	return h.Sum64()
}

// ReducerOf maps a key hash to its reducer (output partition) index.
func ReducerOf(keyHash uint64, numReducers int) int {
	return int(keyHash % uint64(numReducers))
}

// splitSalt decorrelates the split hash from the reducer hash. Without it,
// splits whose count shares a factor with the reducer count would see
// systematically skewed key subsets (e.g. 10 reducers split 2-ways would
// put every key of a partition in the same split).
const splitSalt = 0x9e3779b97f4a7c15

// SplitOf maps a key hash to its split index within a reducer that has been
// split k ways during recomputation. Every key of the original partition
// lands in exactly one split, so the union of the splits' key sets is the
// original key set (the Figure 5 correctness requirement).
func SplitOf(keyHash uint64, k int) int {
	if k <= 1 {
		return 0
	}
	return int(mix64(keyHash^splitSalt) % uint64(k))
}

// mix64 is the splitmix64 finalizer: a cheap, high-quality bijective mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ReplicationForJob returns the DFS replication factor RCMP uses for a
// job's output under the hybrid policy of Section IV-C: factor hybridRepl
// for every hybridEveryK-th job, factor 1 otherwise. hybridEveryK == 0
// disables the hybrid (pure recomputation, factor 1 everywhere).
func ReplicationForJob(jobID, hybridEveryK, hybridRepl int) int {
	if hybridEveryK > 0 && jobID%hybridEveryK == 0 {
		return hybridRepl
	}
	return 1
}

// SpeculationFactor is Hadoop's straggler multiple (Section II): with
// speculation on, a mapper still running after SpeculationFactor times the
// mean duration of its job's completed mappers gets a duplicate on another
// node. Every engine reads this one value.
const SpeculationFactor = 1.5
