package dmr

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rcmp/internal/workload"
)

// RecordBatch is a record slice that crosses a connection as one packed,
// length-prefixed frame instead of one reflected struct per record: as the
// bulk section of its message's envelope on a wire connection, or through
// GobEncode and GobDecode wherever gob encodes it. It is the payload type
// of every data-plane message (PutBlockReq, FetchBlockResp,
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

// frameSize is the exact length of the batch's frame.
func (b RecordBatch) frameSize() int {
	size := uvarintLen(uint64(len(b)))
	for _, r := range b {
		size += 8 + uvarintLen(uint64(len(r.Value))) + len(r.Value)
	}
	return size
}

func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// appendFrame appends the batch's frame to dst: the one frame writer, for
// gob and for wire's bulk section alike.
func (b RecordBatch) appendFrame(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	for _, r := range b {
		dst = binary.LittleEndian.AppendUint64(dst, r.Key)
		dst = binary.AppendUvarint(dst, uint64(len(r.Value)))
		dst = append(dst, r.Value...)
	}
	return dst
}

// GobEncode packs the batch into one frame (see RecordBatch).
func (b RecordBatch) GobEncode() ([]byte, error) {
	return b.appendFrame(make([]byte, 0, b.frameSize())), nil
}

// GobDecode unpacks a frame written by GobEncode. The input belongs to the
// gob decoder, which reuses it, so the values are copied out (parseFrame).
func (b *RecordBatch) GobDecode(data []byte) error {
	recs, err := parseFrame(data, false)
	if err != nil {
		return err
	}
	*b = recs
	return nil
}

// parseFrame is the one frame parser. The input is untrusted (it arrives
// off a socket), so every count and length is checked against what is left
// of it before anything is sized from it. With alias set each Value is a
// window of data itself, which the caller hands over for good; otherwise
// the values are copied into one backing buffer. Either way each Value is
// cap-limited to its own bytes, so appending to one record's value can
// never overwrite its neighbour's.
func parseFrame(data []byte, alias bool) (RecordBatch, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, errors.New("dmr: record batch: bad record count")
	}
	rest := data[n:]
	if count > uint64(len(rest)/minRecordFrame) {
		return nil, fmt.Errorf("dmr: record batch: count %d exceeds what %d bytes can hold", count, len(rest))
	}
	recs := make(RecordBatch, count)
	var values []byte
	if !alias {
		// Every record spends at least minRecordFrame bytes outside its
		// value, so this bounds the value bytes from above and the buffer
		// never grows.
		values = make([]byte, 0, len(rest)-int(count)*minRecordFrame)
	}
	for i := range recs {
		if len(rest) < minRecordFrame {
			return nil, fmt.Errorf("dmr: record batch: truncated at record %d of %d", i, count)
		}
		recs[i].Key = binary.LittleEndian.Uint64(rest)
		size, n := binary.Uvarint(rest[8:])
		if n <= 0 {
			return nil, fmt.Errorf("dmr: record batch: bad value length at record %d", i)
		}
		rest = rest[8+n:]
		// What this value may take and still leave the later records their
		// minimum; holding every value to it keeps the total within cap(values).
		room := len(rest) - (len(recs)-i-1)*minRecordFrame
		if room < 0 || size > uint64(room) {
			return nil, fmt.Errorf("dmr: record batch: record %d of %d claims %d value bytes, %d left", i, count, size, len(rest))
		}
		if size > 0 {
			v := rest[:size:size]
			if !alias {
				start := len(values)
				values = append(values, v...)
				v = values[start:len(values):len(values)]
			}
			recs[i].Value = v
			rest = rest[size:]
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("dmr: record batch: %d trailing bytes after %d records", len(rest), count)
	}
	return recs, nil
}

// The record messages (PutBlockReq, FetchBlockResp, FetchMapOutResp)
// implement wire.Bulk: on a wire connection their RecordBatch frame is the
// envelope's bulk section, and only their other fields go through gob. The
// receiver rebuilds the batch over the section's buffer, which it owns, so
// the values it holds are windows of that one buffer (parseFrame with
// alias set) and no record byte is copied on the way in. A nil batch sends
// no section and arrives nil, as it does through gob.

func (b RecordBatch) sectionSize() int {
	if b == nil {
		return 0
	}
	return b.frameSize()
}

func (b RecordBatch) appendSection(dst []byte) []byte {
	if b == nil {
		return dst
	}
	return b.appendFrame(dst)
}

// SplitBulk returns the request without its records, and their frame size.
func (m PutBlockReq) SplitBulk() (any, int) {
	head := m
	head.Records = nil
	return head, m.Records.sectionSize()
}

// AppendBulk appends the records' frame.
func (m PutBlockReq) AppendBulk(dst []byte) []byte { return m.Records.appendSection(dst) }

// JoinBulk rebuilds the records over the received frame.
func (m PutBlockReq) JoinBulk(section []byte) (any, error) {
	var err error
	m.Records, err = parseFrame(section, true)
	return m, err
}

// SplitBulk returns the reply without its records, and their frame size.
func (m FetchBlockResp) SplitBulk() (any, int) {
	return FetchBlockResp{}, m.Records.sectionSize()
}

// AppendBulk appends the records' frame.
func (m FetchBlockResp) AppendBulk(dst []byte) []byte { return m.Records.appendSection(dst) }

// JoinBulk rebuilds the records over the received frame.
func (m FetchBlockResp) JoinBulk(section []byte) (any, error) {
	var err error
	m.Records, err = parseFrame(section, true)
	return m, err
}

// SplitBulk returns the reply without its records, and their frame size.
func (m FetchMapOutResp) SplitBulk() (any, int) {
	return FetchMapOutResp{Counts: m.Counts}, m.Records.sectionSize()
}

// AppendBulk appends the records' frame.
func (m FetchMapOutResp) AppendBulk(dst []byte) []byte { return m.Records.appendSection(dst) }

// JoinBulk rebuilds the records over the received frame.
func (m FetchMapOutResp) JoinBulk(section []byte) (any, error) {
	var err error
	m.Records, err = parseFrame(section, true)
	return m, err
}
