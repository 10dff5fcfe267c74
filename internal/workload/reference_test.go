package workload

import (
	"crypto/md5"
	"encoding/binary"
	"sort"

	"rcmp/internal/core"
)

// The record loops as they were before they stopped allocating per
// record, kept as the references the rewritten MapBlock, ReduceGroups,
// byteSum and Digest.Add are held to: one value per mapped record, one
// map entry and values slice per reduce key, one byte at a time, and one
// hash.Hash per digested record.

func mapRef(r Record, emit func(Record)) error {
	if err := Verify(r); err != nil {
		return err
	}
	v := make([]byte, len(r.Value))
	copy(v, r.Value)
	payload := v[checkLen:]
	for i := range payload {
		payload[i] = payload[i]<<1 | payload[i]>>7
	}
	stamp(v)
	emit(Record{Key: rekey(r.Key, v), Value: v})
	return nil
}

func mapBlockRef(rows []Record, numReducers int) ([][]Record, int64, error) {
	buckets := make([][]Record, numReducers)
	var bytes int64
	for _, r := range rows {
		err := mapRef(r, func(o Record) {
			red := core.ReducerOf(core.HashKey(KeyBytes(o.Key)), numReducers)
			buckets[red] = append(buckets[red], o)
			bytes += int64(8 + len(o.Value))
		})
		if err != nil {
			return nil, 0, err
		}
	}
	return buckets, bytes, nil
}

func reduceGroupsRef(sources [][]Record) ([]Record, int64, error) {
	grouped := make(map[uint64][][]byte)
	var keys []uint64
	for _, rows := range sources {
		for _, r := range rows {
			if _, ok := grouped[r.Key]; !ok {
				keys = append(keys, r.Key)
			}
			grouped[r.Key] = append(grouped[r.Key], r.Value)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var out []Record
	var bytes int64
	for _, k := range keys {
		err := Reduce(k, grouped[k], func(r Record) {
			out = append(out, r)
			bytes += int64(8 + len(r.Value))
		})
		if err != nil {
			return nil, 0, err
		}
	}
	return out, bytes, nil
}

func byteSumRef(b []byte) uint32 {
	var s uint32
	for _, x := range b {
		s += uint32(x)
	}
	return s
}

func (d *Digest) addRef(r Record) {
	d.Count++
	var key [8]byte
	binary.LittleEndian.PutUint64(key[:], r.Key)
	h := md5.New()
	h.Write(key[:])
	h.Write(r.Value)
	var sum [16]byte
	copy(sum[:], h.Sum(nil))
	for i := range d.XorMD5 {
		d.XorMD5[i] ^= sum[i]
	}
	for _, b := range r.Value {
		d.Sum += uint64(b)
	}
}
