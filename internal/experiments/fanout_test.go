package experiments

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"rcmp/internal/failure"
)

// TestFanOutMatchesSerial runs every registered spec through Spec.Exec at
// quick scale on one lane and on four, more lanes than CPUs under `go test
// -cpu 1`, so lanes queue and interleave. Default Configs and one override
// of each dimension a figure reads (the dimension pin's), on both engines:
// Name, Text and every Value must be equal to the bit, and so must a
// rejected point's error.
func TestFanOutMatchesSerial(t *testing.T) {
	sched, err := failure.ParseSchedule("2@15,3@20")
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{EngineDES, EngineAnalytic} {
		for _, dim := range []Config{{}, {FailureAt: 3}, {Schedule: sched}, {Nodes: 7}, {Speculation: true}, {Tenants: 3}} {
			for _, sp := range Registry() {
				c := dim
				c.Scale, c.Seed, c.Engine = ScaleQuick, sp.Seed, eng
				name := JobName(sp.Key, c)
				serial, serr := sp.Exec(c.WithWorker(NewWorker(1)))
				wide, werr := sp.Exec(c.WithWorker(NewWorker(4)))
				if fmt.Sprint(serr) != fmt.Sprint(werr) {
					t.Errorf("%s: error on one lane %v, on four %v", name, serr, werr)
					continue
				}
				if serr != nil {
					continue
				}
				if d := resultDiff(serial, wide); d != "" {
					t.Errorf("%s: four lanes differ from one: %s", name, d)
				}
			}
		}
	}
	// The comparison means something only if figures do fan out: Fig8a's
	// four quick runs take all four lanes, and never on the analytic twin.
	sp, _ := Lookup("8a")
	for _, eng := range []Engine{EngineDES, EngineAnalytic} {
		w := NewWorker(4)
		if _, err := sp.Exec(Config{Scale: ScaleQuick, Engine: eng}.WithWorker(w)); err != nil {
			t.Fatal(err)
		}
		if want := map[Engine]int{EngineDES: 3, EngineAnalytic: 0}[eng]; len(w.lanes) != want {
			t.Errorf("Fig8a on %s built %d extra lanes, want %d", eng, len(w.lanes), want)
		}
	}
}

// resultDiff names the first difference between two results, or returns "".
func resultDiff(a, b *Result) string {
	switch {
	case a.Name != b.Name:
		return fmt.Sprintf("name %q, %q", a.Name, b.Name)
	case a.Text != b.Text:
		return fmt.Sprintf("text\n%s\nagainst\n%s", a.Text, b.Text)
	case !slices.Equal(slices.Sorted(maps.Keys(a.Values)), slices.Sorted(maps.Keys(b.Values))):
		return "value keys"
	}
	for k, v := range a.Values {
		if math.Float64bits(v) != math.Float64bits(b.Values[k]) {
			return fmt.Sprintf("%s = %v, %v", k, v, b.Values[k])
		}
	}
	return ""
}

// TestFanOutFailureOrder pins each's failure rule through Spec.Exec: the
// lowest failing index decides, at every width and whichever run starts
// first. A chainError there is the job's error; a genuine panic there is
// raised again with its own message on its first line.
func TestFanOutFailureOrder(t *testing.T) {
	for _, c := range []struct {
		name   string
		fails  map[int]string // index -> "error" or "panic"
		err    string         // the job's error, if it returns one
		panics string         // the first line of the panic, if it panics
	}{
		{"errors at 2 and 5", map[int]string{2: "error", 5: "error"}, "run 2", ""},
		{"error at 1, panic at 3", map[int]string{1: "error", 3: "panic"}, "run 1", ""},
		{"panic at 1, error at 3", map[int]string{1: "panic", 3: "error"}, "", "run 1"},
		{"none", nil, "", ""},
	} {
		for _, width := range []int{1, 2, 4} {
			sp := Spec{Name: "stub", Run: func(cfg Config) (*Result, error) {
				// The highest index starts first, so a later run fails
				// before an earlier one on every width above 1.
				cfg.owner().each(EngineDES, 6, descending(6), nil, func(_ *Worker, i int) {
					switch c.fails[i] {
					case "error":
						panic(chainError{fmt.Errorf("run %d", i)})
					case "panic":
						panic(fmt.Sprintf("run %d", i))
					}
				})
				return newResult("stub"), nil
			}}
			err, p := execRecover(sp, Config{}.WithWorker(NewWorker(width)))
			if got := fmt.Sprint(err); err != nil && got != c.err || err == nil && c.err != "" {
				t.Errorf("%s, width %d: error %v, want %q", c.name, width, err, c.err)
			}
			first, _, _ := strings.Cut(fmt.Sprint(p), "\n")
			if p == nil && c.panics != "" || p != nil && first != c.panics {
				t.Errorf("%s, width %d: panic %q, want %q", c.name, width, first, c.panics)
			}
		}
	}
}

// execRecover runs sp.Exec(c) and returns its error, or the value it
// panicked with.
func execRecover(sp Spec, c Config) (err error, p any) {
	defer func() { p = recover() }()
	_, err = sp.Exec(c)
	return err, nil
}
