package dmr

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rcmp/internal/workload"
)

// RecordBatch is a record slice that crosses the gob stream as one packed,
// length-prefixed frame instead of one reflected struct per record. It is
// the payload type of every data-plane message (PutBlockReq, FetchBlockResp,
// FetchMapOutResp) and converts freely to and from []workload.Record.
//
// Frame format:
//
//	uvarint  record count
//	count x  { key: 8 bytes little-endian | uvarint value length | value bytes }
//
// Nothing follows the last record. A nil batch is gob's zero value and is
// not sent at all; like plain gob, a zero-length Value decodes as nil.
type RecordBatch []workload.Record

// minRecordFrame is the smallest encoding of one record: the key and a
// one-byte zero length. It bounds the record count a frame can hold.
const minRecordFrame = 8 + 1

// GobEncode packs the batch into one frame (see RecordBatch).
func (b RecordBatch) GobEncode() ([]byte, error) {
	size := binary.MaxVarintLen64 // an upper bound: length prefixes are mostly shorter
	for _, r := range b {
		size += 8 + binary.MaxVarintLen64 + len(r.Value)
	}
	out := make([]byte, 0, size)
	out = binary.AppendUvarint(out, uint64(len(b)))
	for _, r := range b {
		out = binary.LittleEndian.AppendUint64(out, r.Key)
		out = binary.AppendUvarint(out, uint64(len(r.Value)))
		out = append(out, r.Value...)
	}
	return out, nil
}

// GobDecode unpacks a frame written by GobEncode. The input is untrusted
// (it arrives off a socket) and belongs to the gob decoder, so every count
// and length is checked against what is left of it before anything is
// sized from it, and the values are copied into one backing buffer. Each
// Value is cap-limited to its own bytes, so appending to one record's
// value can never overwrite its neighbour's.
func (b *RecordBatch) GobDecode(data []byte) error {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return errors.New("dmr: record batch: bad record count")
	}
	rest := data[n:]
	if count > uint64(len(rest)/minRecordFrame) {
		return fmt.Errorf("dmr: record batch: count %d exceeds what %d bytes can hold", count, len(rest))
	}
	recs := make(RecordBatch, count)
	// Every record spends at least minRecordFrame bytes outside its value,
	// so this bounds the value bytes from above and the buffer never grows.
	values := make([]byte, 0, len(rest)-int(count)*minRecordFrame)
	for i := range recs {
		if len(rest) < minRecordFrame {
			return fmt.Errorf("dmr: record batch: truncated at record %d of %d", i, count)
		}
		recs[i].Key = binary.LittleEndian.Uint64(rest)
		size, n := binary.Uvarint(rest[8:])
		if n <= 0 {
			return fmt.Errorf("dmr: record batch: bad value length at record %d", i)
		}
		rest = rest[8+n:]
		// What this value may take and still leave the later records their
		// minimum; holding every value to it keeps the total within cap(values).
		room := len(rest) - (len(recs)-i-1)*minRecordFrame
		if room < 0 || size > uint64(room) {
			return fmt.Errorf("dmr: record batch: record %d of %d claims %d value bytes, %d left", i, count, size, len(rest))
		}
		if size > 0 {
			start := len(values)
			values = append(values, rest[:size]...)
			recs[i].Value = values[start:len(values):len(values)]
			rest = rest[size:]
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("dmr: record batch: %d trailing bytes after %d records", len(rest), count)
	}
	*b = recs
	return nil
}
