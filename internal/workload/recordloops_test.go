package workload

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// sameRecords reports the first difference between two record slices,
// value bytes included, or "" when they match.
func sameRecords(got, want []Record) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || !bytes.Equal(got[i].Value, want[i].Value) {
			return fmt.Sprintf("record %d is {%#x %x}, want {%#x %x}", i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
	return ""
}

// sameErr reports whether two errors are both nil or have the same text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// corrupt returns rows with the payload of record i flipped, in a copy.
func corrupt(rows []Record, i int) []Record {
	rows = append([]Record(nil), rows...)
	v := append([]byte(nil), rows[i].Value...)
	v[len(v)-1] ^= 0xff
	rows[i].Value = v
	return rows
}

// narrowKeys re-keys rows into [0, keys), so a reduce task sees many
// values per key; the chain's re-keyed records have nearly unique keys.
func narrowKeys(rows []Record, keys int, rng *rand.Rand) []Record {
	rows = append([]Record(nil), rows...)
	for i := range rows {
		rows[i].Key = uint64(rng.Intn(keys))
	}
	return rows
}

// checkMapBlock holds MapBlock to the reference over one block.
func checkMapBlock(t *testing.T, name string, rows []Record, reducers int) {
	t.Helper()
	got, gotBytes, gotErr := MapBlock(rows, reducers)
	want, wantBytes, wantErr := mapBlockRef(rows, reducers)
	if !sameErr(gotErr, wantErr) || gotBytes != wantBytes || len(got) != len(want) {
		t.Fatalf("%s: MapBlock gave %d buckets, %d bytes, %v; reference %d, %d, %v",
			name, len(got), gotBytes, gotErr, len(want), wantBytes, wantErr)
	}
	for red := range got {
		if (got[red] == nil) != (want[red] == nil) {
			t.Fatalf("%s: bucket %d nil=%t, reference nil=%t", name, red, got[red] == nil, want[red] == nil)
		}
		if d := sameRecords(got[red], want[red]); d != "" {
			t.Fatalf("%s: bucket %d: %s", name, red, d)
		}
	}
}

// checkReduceGroups holds ReduceGroups to the reference over one task.
func checkReduceGroups(t *testing.T, name string, sources [][]Record) {
	t.Helper()
	got, gotBytes, gotErr := ReduceGroups(sources)
	want, wantBytes, wantErr := reduceGroupsRef(sources)
	if !sameErr(gotErr, wantErr) || gotBytes != wantBytes {
		t.Fatalf("%s: ReduceGroups gave %d bytes, %v; reference %d, %v", name, gotBytes, gotErr, wantBytes, wantErr)
	}
	if d := sameRecords(got, want); d != "" {
		t.Fatalf("%s: %s", name, d)
	}
}

// stamped returns a record whose value carries a valid check over a
// random payload of the given length.
func stamped(rng *rand.Rand, key uint64, payload int) Record {
	v := make([]byte, checkLen+payload)
	rng.Read(v[checkLen:])
	stamp(v)
	return Record{Key: key, Value: v}
}

// TestRecordLoopsMatchReference holds MapBlock and ReduceGroups to the
// per-record loops they replaced: the same buckets (nil where a reducer
// gets nothing), the same records in the same order with the same value
// bytes, the same byte totals and the same error text.
func TestRecordLoopsMatchReference(t *testing.T) {
	type block struct {
		rows     []Record
		reducers int
	}
	rng := rand.New(rand.NewSource(45))
	for seed := int64(1); seed <= 20; seed++ {
		n := rng.Intn(300)
		reducers := 1 + rng.Intn(12)
		rows := Generate(n, seed)
		// The second block has more reducers than records, so some get
		// none and keep a nil bucket.
		blocks := []block{{rows, reducers}, {rows[:min(n, 3)], 16}}
		if n > 0 {
			blocks = append(blocks, block{corrupt(rows, n/2), reducers})
		}
		for bi, b := range blocks {
			checkMapBlock(t, fmt.Sprintf("seed %d block %d", seed, bi), b.rows, b.reducers)
		}

		// Shuffle the block's records into sources the way a reducer sees
		// them: a run of sources, some empty, keys from a narrow or the
		// full range.
		input := rows
		if seed%2 == 0 {
			input = narrowKeys(rows, 1+rng.Intn(8), rng)
		}
		var sources [][]Record
		for rest := input; len(rest) > 0; {
			k := min(rng.Intn(60), len(rest))
			sources = append(sources, rest[:k])
			rest = rest[k:]
		}
		cases := [][][]Record{nil, {}, {nil, {}}, {input}, sources}
		if len(sources) > 0 {
			bad := append([][]Record(nil), sources...)
			for i, s := range bad {
				if len(s) > 0 {
					bad[i] = corrupt(s, len(s)/2)
					break
				}
			}
			cases = append(cases, bad)
		}
		for ci, srcs := range cases {
			checkReduceGroups(t, fmt.Sprintf("seed %d case %d", seed, ci), srcs)
		}
	}

	// Shapes the random blocks reach rarely or never. Blocks of 0 and 1
	// records:
	one := stamped(rng, 7, 88)
	checkMapBlock(t, "no records", nil, 4)
	checkMapBlock(t, "one record", []Record{one}, 4)
	checkReduceGroups(t, "one record", [][]Record{{one}})
	checkReduceGroups(t, "one record among empty sources", [][]Record{nil, {}, {one}, {}})

	// Payloads of every length from 0 to 40 bytes, most not a multiple of
	// the word the rotation and the byte sum step by:
	var odd []Record
	for size := 0; size <= 40; size++ {
		odd = append(odd, stamped(rng, rng.Uint64(), size))
	}
	checkMapBlock(t, "odd payloads", odd, 5)
	checkMapBlock(t, "odd payloads, one corrupt", corrupt(odd, 21), 5)
	checkReduceGroups(t, "odd payloads", [][]Record{odd[:20], odd[20:]})

	// Keys that differ in one byte only, for each of the eight: only that
	// byte's radix pass orders them. Each set is its own task and then
	// all are one, duplicates included, in shuffled sources.
	base := rng.Uint64()
	var all []Record
	for b := 0; b < 8; b++ {
		var set []Record
		for _, x := range []uint64{0xff, 0, 0x80, 1, 0x7f, 0x80, base >> (8 * b) & 0xff} {
			key := base&^(0xff<<(8*b)) | x<<(8*b)
			set = append(set, stamped(rng, key, 88))
		}
		checkReduceGroups(t, fmt.Sprintf("keys differing in byte %d", b), [][]Record{set[:3], set[3:]})
		all = append(all, set...)
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	checkReduceGroups(t, "keys differing in one byte", [][]Record{all[:17], all[17:30], all[30:]})

	// Equal keys spread over many sources, some empty: the values of a key
	// must come out in source order.
	var many [][]Record
	for s := 0; s < 64; s++ {
		var src []Record
		for k := 0; k < s%4; k++ {
			src = append(src, stamped(rng, uint64(k%2)<<56|3, 88))
		}
		many = append(many, src)
	}
	checkReduceGroups(t, "equal keys over 64 sources", many)
}

// TestMapBlockValuesIsolated checks that the arena windows and bucket
// windows MapBlock hands out are capped: appending to one output value or
// one bucket reallocates it and leaves its arena neighbour as it was.
func TestMapBlockValuesIsolated(t *testing.T) {
	buckets, _, err := MapBlock(Generate(40, 7), 4)
	if err != nil {
		t.Fatal(err)
	}
	var before []Record
	for _, b := range buckets {
		for _, r := range b {
			before = append(before, Record{r.Key, append([]byte(nil), r.Value...)})
		}
	}
	for _, b := range buckets {
		_ = append(b, Record{Key: 1, Value: []byte("bucket overrun")})
		for _, r := range b {
			_ = append(r.Value, bytes.Repeat([]byte{0xaa}, 16)...)
		}
	}
	var after []Record
	for _, b := range buckets {
		after = append(after, b...)
	}
	if d := sameRecords(after, before); d != "" {
		t.Fatalf("appending to an output changed another: %s", d)
	}
}

// TestRecordLoopAllocs pins the allocations of one map task, one reduce
// task and one block digest: a fixed handful per task, none per record.
// The per-record loops these replaced made 301, 3 060 and 250.
func TestRecordLoopAllocs(t *testing.T) {
	block := Generate(250, 1)
	shuffled := Generate(3000, 2)
	sources := [][]Record{shuffled[:750], shuffled[750:1500], shuffled[1500:2250], shuffled[2250:]}
	for _, c := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"MapBlock", 6, func() { _, _, _ = MapBlock(block, 8) }},
		{"ReduceGroups", 3, func() { _, _, _ = ReduceGroups(sources) }},
		{"DigestRecords", 0, func() { _ = DigestRecords(block) }},
	} {
		if got := testing.AllocsPerRun(20, c.run); got > c.ceiling {
			t.Errorf("%s: %v allocs per call, ceiling %v", c.name, got, c.ceiling)
		} else {
			t.Logf("%s: %v allocs per call", c.name, got)
		}
	}
}

// FuzzByteSum holds the word-wise byte sum to the byte-at-a-time loop, as
// the value check (byteSum) and as the digest's sum, and the whole digest
// of a record to the one-hash-per-record reference. The seeds are all
// 0xff, the largest lane load, around the word and 128-word fold edges.
func FuzzByteSum(f *testing.F) {
	for _, n := range []int{0, 7, 8, 88, 1023, 1024, 1025, 4096} {
		f.Add(bytes.Repeat([]byte{0xff}, n))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, want := byteSum(b), byteSumRef(b); got != want {
			t.Fatalf("byteSum over %d bytes = %d, want %d", len(b), got, want)
		}
		r := Record{Key: uint64(len(b)) * 0x9e3779b97f4a7c15, Value: b}
		var want Digest
		want.addRef(r)
		if got := DigestRecords([]Record{r}); !got.Equal(want) {
			t.Fatalf("digest over %d bytes = %v, want %v", len(b), got, want)
		}
	})
}

// BenchmarkRecordLoops times the shapes TestRecordLoopAllocs pins: one
// 250-record map task over 8 reducers and one 3 000-record reduce task
// over four sources.
func BenchmarkRecordLoops(b *testing.B) {
	block := Generate(250, 1)
	shuffled := Generate(3000, 2)
	sources := [][]Record{shuffled[:750], shuffled[750:1500], shuffled[1500:2250], shuffled[2250:]}
	b.Run("MapBlock", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _, _ = MapBlock(block, 8)
		}
	})
	b.Run("ReduceGroups", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _, _ = ReduceGroups(sources)
		}
	})
}
