package workload

import (
	"crypto/md5"
	"encoding/binary"
	"fmt"
)

// Digest is an order-independent fingerprint of a multiset of records: the
// XOR of per-record MD5s plus the record count and total byte sum. Two
// record multisets compare equal exactly when Count, XorMD5 and Sum all
// match (up to MD5 collisions), regardless of record order — which is what
// lets a split recomputation, whose partition content is a differently
// ordered merge, be verified against the failure-free run.
type Digest struct {
	Count  int
	XorMD5 [16]byte
	Sum    uint64
}

// Add folds one record into the digest. The key and value are hashed from
// one buffer on the stack, so a record of up to digestBuf bytes allocates
// nothing.
func (d *Digest) Add(r Record) {
	d.Count++
	var buf [digestBuf]byte
	b := binary.LittleEndian.AppendUint64(buf[:0], r.Key)
	sum := md5.Sum(append(b, r.Value...))
	for i := range d.XorMD5 {
		d.XorMD5[i] ^= sum[i]
	}
	d.Sum += sumBytes(r.Value)
}

// digestBuf is Add's stack buffer: the key plus a ValueSize value, with
// room to spare.
const digestBuf = 256

// Merge folds another digest into d. Merging is commutative and
// associative, so per-block digests combine into a partition digest in any
// order.
func (d *Digest) Merge(o Digest) {
	d.Count += o.Count
	for i := range d.XorMD5 {
		d.XorMD5[i] ^= o.XorMD5[i]
	}
	d.Sum += o.Sum
}

// Equal reports whether two digests match.
func (d Digest) Equal(o Digest) bool {
	return d.Count == o.Count && d.XorMD5 == o.XorMD5 && d.Sum == o.Sum
}

// String renders a short form for test failure messages.
func (d Digest) String() string {
	return fmt.Sprintf("{n=%d md5=%x sum=%d}", d.Count, d.XorMD5[:4], d.Sum)
}

// DigestRecords fingerprints a record slice.
func DigestRecords(rows []Record) Digest {
	var d Digest
	for _, r := range rows {
		d.Add(r)
	}
	return d
}
