// Package workload builds the paper's evaluation workload: a multi-job,
// I/O-intensive chain (7 jobs in the paper) over randomly generated binary
// key-value records, with a 1:1:1 input/shuffle/output size ratio.
//
// Each mapper and reducer performs, per record, two computations used to
// check correctness end to end — one based on the MD5 hash of the record
// value and one based on the sum of all bytes in the value (Section V-A).
// Mappers also re-key every record so data stays load-balanced across
// tasks in every job; the new key is derived deterministically from the
// record content so recomputation runs regenerate byte-identical data.
//
// MapBlock, SplitSlice and ReduceGroups are the record loops of one map or
// reduce task, shared by every data-plane runtime.
package workload

import (
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"math/rand"

	"rcmp/internal/core"
)

// Record is one key-value pair.
type Record struct {
	Key   uint64
	Value []byte
}

// checkLen is the prefix of the value that carries the embedded
// MD5-fragment and byte-sum used for correctness checking.
const checkLen = 12

// ValueSize is the default record value size. With the 8-byte key this
// makes records compact enough to run laptop-scale functional experiments
// with meaningful record counts.
const ValueSize = 100

// Generate produces n deterministic pseudo-random records for a seed.
// Values carry a valid embedded check so that job 1's verification passes.
func Generate(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Record, n)
	for i := range out {
		v := make([]byte, ValueSize)
		rng.Read(v[checkLen:])
		stamp(v)
		out[i] = Record{Key: rng.Uint64(), Value: v}
	}
	return out
}

// stamp embeds the MD5 fragment and byte-sum of the value payload into the
// value's check prefix.
func stamp(v []byte) {
	payload := v[checkLen:]
	h := md5.Sum(payload)
	copy(v[:8], h[:8])
	binary.LittleEndian.PutUint32(v[8:12], byteSum(payload))
}

// byteSum is the value check's byte sum: the sum of b's bytes, modulo 2^32.
func byteSum(b []byte) uint32 { return uint32(sumBytes(b)) }

// lowBytes selects the low byte of each 16-bit lane of a word.
const lowBytes = 0x00ff00ff00ff00ff

// sumBytes returns the sum of b's bytes, a word at a time: each 8-byte
// word adds its bytes pairwise into four 16-bit lanes, at most 2*255 a
// lane, so 128 words (65 280) fit a lane before the lanes must be folded
// into the total. The tail shorter than a word is summed byte by byte.
func sumBytes(b []byte) uint64 {
	var total uint64
	for len(b) >= 8 {
		words := min(len(b)/8, 128)
		var lanes uint64
		for i := 0; i < words; i++ {
			w := binary.LittleEndian.Uint64(b[8*i:])
			lanes += w&lowBytes + w>>8&lowBytes
		}
		lanes = lanes&0x0000ffff0000ffff + lanes>>16&0x0000ffff0000ffff
		total += lanes&0xffffffff + lanes>>32
		b = b[8*words:]
	}
	for _, x := range b {
		total += uint64(x)
	}
	return total
}

// Verify checks a record's embedded MD5 fragment and byte-sum; it returns
// an error describing the first mismatch. This is the paper's per-record
// correctness computation: every task runs it on every record it touches.
func Verify(r Record) error {
	if len(r.Value) < checkLen {
		return fmt.Errorf("workload: record value %d bytes, need >= %d", len(r.Value), checkLen)
	}
	payload := r.Value[checkLen:]
	h := md5.Sum(payload)
	for i := 0; i < 8; i++ {
		if r.Value[i] != h[i] {
			return fmt.Errorf("workload: record key %#x: md5 check mismatch at byte %d", r.Key, i)
		}
	}
	if got := binary.LittleEndian.Uint32(r.Value[8:12]); got != byteSum(payload) {
		return fmt.Errorf("workload: record key %#x: byte-sum check mismatch", r.Key)
	}
	return nil
}

// rekey derives a new, uniformly distributed key from the record content.
// Determinism matters: a recomputed mapper must route every record to the
// same reducer the initial run chose, or reused outputs would disagree.
func rekey(key uint64, value []byte) uint64 {
	x := key ^ 0x517cc1b727220a95
	for i := 0; i+8 <= checkLen; i += 8 {
		x = mix(x ^ binary.LittleEndian.Uint64(value[i:]))
	}
	// The check prefix alone is already content-derived (MD5 of payload),
	// so mixing it suffices and keeps re-keying cheap.
	return mix(x)
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Map is the chain job's mapper UDF: verify the record, transform the
// payload (a byte-wise rotation keeps sizes identical for the 1:1 ratio),
// re-stamp the checks, and emit under a randomized-but-deterministic key.
func Map(r Record, emit func(Record)) error {
	o, err := mapInto(r, make([]byte, len(r.Value)))
	if err != nil {
		return err
	}
	emit(o)
	return nil
}

// mapInto is Map writing the output value into v, which must be
// len(r.Value) bytes; it returns the output record.
func mapInto(r Record, v []byte) (Record, error) {
	if err := Verify(r); err != nil {
		return Record{}, err
	}
	rotateBytes(v[checkLen:], r.Value[checkLen:])
	stamp(v) // overwrites the whole check prefix
	return Record{Key: rekey(r.Key, v), Value: v}, nil
}

// Masks of the bits of each byte of a word that a one-bit left rotation
// of every byte moves up within the byte, and that wrap to its bottom.
const (
	rotLow  = 0xfefefefefefefefe
	rotWrap = 0x0101010101010101
)

// rotateBytes writes each byte of src, rotated left by one bit, into dst
// (len(src) bytes), a word at a time; the tail shorter than a word goes
// byte by byte.
func rotateBytes(dst, src []byte) {
	dst = dst[:len(src)]
	for len(src) >= 8 {
		w := binary.LittleEndian.Uint64(src)
		binary.LittleEndian.PutUint64(dst, w<<1&rotLow|w>>7&rotWrap)
		dst, src = dst[8:], src[8:]
	}
	for i, x := range src {
		dst[i] = x<<1 | x>>7
	}
}

// Reduce is the chain job's reducer UDF: verify every value of the key and
// emit it unchanged (1:1 shuffle:output ratio). The reducer's validation of
// the embedded checks is what catches any recomputation bug that duplicates,
// drops, or corrupts records.
func Reduce(key uint64, values [][]byte, emit func(Record)) error {
	for _, v := range values {
		if err := Verify(Record{Key: key, Value: v}); err != nil {
			return err
		}
		emit(Record{Key: key, Value: v})
	}
	return nil
}

// KeyBytes renders a key in the canonical byte form fed to the partitioner
// hash, shared by all engines.
func KeyBytes(key uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], key)
	return b[:]
}

// MapBlock runs Map over one input block and deals the output into one
// bucket per reducer by key hash — the partitioning every runtime shares.
// It also returns the output's size in bytes (an 8-byte key plus the
// value, per record).
//
// A block allocates a fixed handful of times, whatever its length: the
// output values are cap-limited windows of one arena, and the buckets are
// cap-limited windows of one record slice, each in input order. A reducer
// that gets no record keeps a nil bucket.
func MapBlock(rows []Record, numReducers int) ([][]Record, int64, error) {
	size := 0
	for _, r := range rows {
		size += len(r.Value)
	}
	arena := make([]byte, size)
	mapped := make([]Record, len(rows))
	reducer := make([]int, len(rows))
	counts := make([]int, numReducers)
	for i, r := range rows {
		v := arena[:len(r.Value):len(r.Value)]
		arena = arena[len(r.Value):]
		o, err := mapInto(r, v)
		if err != nil {
			return nil, 0, err
		}
		mapped[i] = o
		reducer[i] = core.ReducerOf(core.HashKey(KeyBytes(o.Key)), numReducers)
		counts[reducer[i]]++
	}
	buckets := make([][]Record, numReducers)
	backing := make([]Record, len(rows))
	for red, n := range counts {
		if n > 0 {
			buckets[red] = backing[:0:n]
			backing = backing[n:]
		}
	}
	for i, o := range mapped {
		buckets[reducer[i]] = append(buckets[reducer[i]], o)
	}
	return buckets, int64(8*len(rows) + size), nil
}

// SplitSlice returns the records of one map-output bucket that belong to
// split `split` of `splits` (all of them when splits <= 1): the share one
// split task of a recomputed reducer reads.
func SplitSlice(rows []Record, split, splits int) []Record {
	if splits <= 1 {
		return rows
	}
	var out []Record
	for _, r := range rows {
		if core.SplitOf(core.HashKey(KeyBytes(r.Key)), splits) == split {
			out = append(out, r)
		}
	}
	return out
}

// ReduceGroups is one reduce task over its shuffled input: it groups the
// records of every source by key, values in source order, and runs Reduce
// on each key in ascending key order, so the output does not depend on
// the order the sources arrived in. It also returns the output's size in
// bytes, counted as MapBlock counts it.
//
// The grouping orders (key, position) pairs over the sources by key with a
// stable radix sort, so equal keys keep their source order, and hands
// Reduce each run of equal keys through one reused values slice: a task
// allocates a fixed handful of times, not once per key.
func ReduceGroups(sources [][]Record) ([]Record, int64, error) {
	n := 0
	for _, rows := range sources {
		n += len(rows)
	}
	pairs := make([]keyPos, 0, 2*n) // the pairs, then the sort's scratch
	for s, rows := range sources {
		for i, r := range rows {
			pairs = append(pairs, keyPos{r.Key, int32(s), int32(i)})
		}
	}
	order := radixSort(pairs, pairs[n:2*n])
	out := make([]Record, 0, n)
	var bytes int64
	emit := func(r Record) {
		out = append(out, r)
		bytes += int64(8 + len(r.Value))
	}
	var values [][]byte
	for i := 0; i < n; {
		k := order[i].key
		values = values[:0]
		for ; i < n && order[i].key == k; i++ {
			values = append(values, sources[order[i].src][order[i].row].Value)
		}
		if err := Reduce(k, values, emit); err != nil {
			return nil, 0, err
		}
	}
	return out, bytes, nil
}

// keyPos is one record of a reduce task's input: its key and where it is
// in the sources. Listed source by source, the pairs are in (src, row)
// order, which is the order equal keys keep.
type keyPos struct {
	key      uint64
	src, row int32
}

// radixSort orders a by key with a least-significant-digit radix sort, one
// key byte a pass, moving the pairs between a and tmp (as long as a); it
// returns whichever of the two holds the result. Each pass is stable, so
// pairs with equal keys keep the order they came in, and a byte every key
// shares costs no pass.
func radixSort(a, tmp []keyPos) []keyPos {
	if len(a) < 2 {
		return a
	}
	var counts [8][256]int
	for _, p := range a {
		for b := range counts {
			counts[b][byte(p.key>>(8*b))]++
		}
	}
	for b := range counts {
		c := &counts[b]
		if c[byte(a[0].key>>(8*b))] == len(a) {
			continue
		}
		sum := 0
		for d, k := range c {
			c[d], sum = sum, sum+k
		}
		for _, p := range a {
			d := byte(p.key >> (8 * b))
			tmp[c[d]] = p
			c[d]++
		}
		a, tmp = tmp, a
	}
	return a
}
