package rcmp_test

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"rcmp/internal/experiments"
	"rcmp/internal/server"
)

// TestDocsMatchDimensionTable holds the user docs to the sweep-dimension
// table: docs/experiments.md's Config table lists every dimension's field,
// in table order, and docs/serving.md's sweep request example shows every
// dimension's request key, in table order.
func TestDocsMatchDimensionTable(t *testing.T) {
	var fields, keys []string
	for _, d := range experiments.Dims() {
		fields = append(fields, d.Field)
		keys = append(keys, d.JSON)
	}

	exp := readDoc(t, "docs/experiments.md")
	_, table, ok := strings.Cut(exp, "`experiments.Config`'s knobs:")
	if !ok {
		t.Fatal("docs/experiments.md: no Config table")
	}
	table, _, _ = strings.Cut(table, "\n## ")
	var documented []string
	for _, m := range regexp.MustCompile("(?m)^\\| `(\\w+)` \\|").FindAllStringSubmatch(table, -1) {
		documented = append(documented, m[1])
	}
	if !reflect.DeepEqual(documented, fields) {
		t.Errorf("docs/experiments.md Config table lists %v, want the dimension fields %v", documented, fields)
	}

	serving := readDoc(t, "docs/serving.md")
	_, example, ok := strings.Cut(serving, "A sweep request body:")
	if !ok {
		t.Fatal("docs/serving.md: no sweep request example")
	}
	example, _, _ = strings.Cut(example, "\n```\n")
	var shown []string
	for _, m := range regexp.MustCompile(`(?m)^\s*"(\w+)":`).FindAllStringSubmatch(example, -1) {
		if slicesContains(keys, m[1]) {
			shown = append(shown, m[1])
		}
	}
	if !reflect.DeepEqual(shown, keys) {
		t.Errorf("docs/serving.md request example shows dimension keys %v, want %v", shown, keys)
	}
}

// TestSchemasMatchDimensionTable holds the typed wire schemas to the
// table: every dimension's request key is a SweepRequest field, and the
// report fields experiments.Echo encodes are the dimensions' report keys,
// in table order.
func TestSchemasMatchDimensionTable(t *testing.T) {
	request := map[string]bool{}
	rt := reflect.TypeOf(server.SweepRequest{})
	for i := 0; i < rt.NumField(); i++ {
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		request[name] = true
	}
	var reports []string
	for _, d := range experiments.Dims() {
		if !request[d.JSON] {
			t.Errorf("dimension %s: SweepRequest has no %q field", d.Name, d.JSON)
		}
		reports = append(reports, d.Report)
	}
	var echoed []string
	et := reflect.TypeOf(experiments.Echo{})
	for i := 0; i < et.NumField(); i++ {
		name, _, _ := strings.Cut(et.Field(i).Tag.Get("json"), ",")
		echoed = append(echoed, name)
	}
	if !reflect.DeepEqual(echoed, reports) {
		t.Errorf("experiments.Echo encodes %v, want the report keys %v", echoed, reports)
	}
	// And a report of a Config off every default states each dimension.
	b, _ := json.Marshal(experiments.Config{Scale: experiments.ScaleQuick, Seed: 1, FailureAt: 2, Nodes: 16, Tenants: 3,
		Speculation: true, Engine: experiments.EngineAnalytic}.Echo())
	for _, key := range reports {
		if key != "schedule" && !strings.Contains(string(b), `"`+key+`":`) {
			t.Errorf("Echo %s lacks %q", b, key)
		}
	}
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func slicesContains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
