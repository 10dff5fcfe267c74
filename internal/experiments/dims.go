package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"iter"
	"strconv"
	"strings"

	"rcmp/internal/failure"
)

// Dim is one sweep dimension of Config, a row of the table every sweep
// surface iterates in its one order: rcmpsim registers the flags, the
// sweep server parses request values, Axes.Product nests the loops,
// JobName appends the name parts, ConfigDigest frames the fields and Echo
// lists the report keys. Adding a dimension is one row plus the code that
// reads its Config field.
type Dim struct {
	// Name frames the field in ConfigDigest and keys it in Axes; Field is
	// the Config field.
	Name, Field string
	// Flag, Usage and Kind declare the rcmpsim flag. A KindBool flag takes
	// no value: set, it selects the value On.
	Flag, Usage string
	Kind        Kind
	On          string
	// JSON is the /v1/sweep request key, Report the report row key (Echo).
	JSON, Report string
	// Parse reads one value in its flag or request spelling into a Config
	// carrying it: the one parser of the dimension on every surface.
	Parse func(string) (Config, error)

	set    func(dst *Config, src Config)   // copies the field from src
	digest func(b []byte, c Config) []byte // appends its canonical value
	name   func(b []byte, c Config) []byte // appends its job-name part
}

// Kind is the value type of a dimension's rcmpsim flag: any string (Parse
// checks it), an integer (parsed as flag.Int64 parses it) or no value.
type Kind int

const (
	KindString Kind = iota
	KindInt
	KindBool
)

// dims is the dimension table, in its one order (see Dim).
var dims = [...]Dim{
	{Name: "scale", Field: "Scale", Flag: "quick", Kind: KindBool, On: "quick", JSON: "scale", Report: "scale",
		Usage:  "run at reduced scale (fast)",
		Parse:  func(s string) (c Config, err error) { c.Scale, err = ParseScale(s); return },
		set:    func(dst *Config, src Config) { dst.Scale = src.Scale },
		digest: func(b []byte, c Config) []byte { return strconv.AppendInt(b, int64(c.Scale), 10) },
		name:   func(b []byte, c Config) []byte { return namePart(b, c.Scale != ScalePaper, "/", c.Scale.String()) },
	},
	{Name: "seed", Field: "Seed", Flag: "seed", Kind: KindInt, JSON: "seeds", Report: "seed",
		Usage:  "experiment seed (0 reproduces the paper harness)",
		Parse:  func(s string) (c Config, err error) { c.Seed, err = strconv.ParseInt(s, 10, 64); return },
		set:    func(dst *Config, src Config) { dst.Seed = src.Seed },
		digest: func(b []byte, c Config) []byte { return strconv.AppendInt(b, c.Seed, 10) },
		name:   func(b []byte, c Config) []byte { return nameInt(b, c.Seed != 0, "/seed=", c.Seed) },
	},
	{Name: "failure-at", Field: "FailureAt", Flag: "failure-at", Kind: KindInt, JSON: "failure_ats", Report: "failure_at",
		Usage:  "override the single-failure injection run (0 = figure default)",
		Parse:  func(s string) (c Config, err error) { c.FailureAt, err = strconv.Atoi(s); return },
		set:    func(dst *Config, src Config) { dst.FailureAt = src.FailureAt },
		digest: func(b []byte, c Config) []byte { return strconv.AppendInt(b, int64(c.FailureAt), 10) },
		name:   func(b []byte, c Config) []byte { return nameInt(b, c.FailureAt > 0, "/fail@", int64(c.FailureAt)) },
	},
	{Name: "schedule", Field: "Schedule", Flag: "schedule", Kind: KindString, JSON: "schedules", Report: "schedule",
		Usage:  "failure schedule for schedule-aware figures: pulses 'RUN[@SEC][xNODES],...' (e.g. '2@15,4@5x2'), or 'stic[:SEED]'/'sugar[:SEED]' to sample one from the paper's traces",
		Parse:  func(s string) (c Config, err error) { c.Schedule, err = failure.ParseSchedule(s); return },
		set:    func(dst *Config, src Config) { dst.Schedule = src.Schedule },
		digest: func(b []byte, c Config) []byte { return append(b, c.Schedule.String()...) },
		name: func(b []byte, c Config) []byte {
			return namePart(b, !c.Schedule.Empty(), "/sched=", c.Schedule.Label())
		},
	},
	{Name: "nodes", Field: "Nodes", Flag: "nodes", Kind: KindInt, JSON: "nodes", Report: "nodes",
		Usage:  "override the simulated cluster size for any experiment (0 = figure default; Fig11 ignores it, weak-scaling runs just that size)",
		Parse:  func(s string) (c Config, err error) { c.Nodes, err = strconv.Atoi(s); return },
		set:    func(dst *Config, src Config) { dst.Nodes = src.Nodes },
		digest: func(b []byte, c Config) []byte { return strconv.AppendInt(b, int64(c.Nodes), 10) },
		name:   func(b []byte, c Config) []byte { return nameInt(b, c.Nodes > 0, "/nodes=", int64(c.Nodes)) },
	},
	{Name: "tenants", Field: "Tenants", Flag: "tenants", Kind: KindInt, JSON: "tenants", Report: "tenants",
		Usage:  "tenant count for multi-tenant experiments (0 = figure's own sweep; >1 is an error on single-tenant figures)",
		Parse:  func(s string) (c Config, err error) { c.Tenants, err = strconv.Atoi(s); return },
		set:    func(dst *Config, src Config) { dst.Tenants = src.Tenants },
		digest: func(b []byte, c Config) []byte { return strconv.AppendInt(b, int64(c.Tenants), 10) },
		name:   func(b []byte, c Config) []byte { return nameInt(b, c.Tenants > 0, "/tenants=", int64(c.Tenants)) },
	},
	{Name: "speculation", Field: "Speculation", Flag: "speculation", Kind: KindBool, On: "true", JSON: "speculation", Report: "speculation",
		Usage:  "enable speculative task execution in every simulated run and report launched/wasted counters",
		Parse:  func(s string) (c Config, err error) { c.Speculation, err = strconv.ParseBool(s); return },
		set:    func(dst *Config, src Config) { dst.Speculation = src.Speculation },
		digest: func(b []byte, c Config) []byte { return strconv.AppendBool(b, c.Speculation) },
		name:   func(b []byte, c Config) []byte { return namePart(b, c.Speculation, "/spec", "") },
	},
	{Name: "engine", Field: "Engine", Flag: "engine", Kind: KindString, JSON: "engines", Report: "engine",
		Usage: "execution engine: 'des' (default, the simulator) or 'analytic' (closed-form twin; instant answers, -nodes up to 1048576)",
		Parse: func(s string) (c Config, err error) {
			c.Engine, err = ParseEngine(strings.ToLower(strings.TrimSpace(s)))
			return
		},
		set:    func(dst *Config, src Config) { dst.Engine = src.Engine },
		digest: func(b []byte, c Config) []byte { return append(b, c.Engine.String()...) },
		name: func(b []byte, c Config) []byte {
			return namePart(b, c.Engine != EngineDES, "/engine=", c.Engine.String())
		},
	},
}

// namePart and nameInt append a job-name part when the dimension is off
// its default.
func namePart(b []byte, on bool, prefix, v string) []byte {
	if !on {
		return b
	}
	return append(append(b, prefix...), v...)
}

func nameInt(b []byte, on bool, prefix string, v int64) []byte {
	if !on {
		return b
	}
	return strconv.AppendInt(append(b, prefix...), v, 10)
}

// Dims yields the dimension table's rows with their indices, in its
// order. Each row is a copy, so ranging over the table clones nothing and
// no caller can edit it.
func Dims() iter.Seq2[int, Dim] {
	return func(yield func(int, Dim) bool) {
		for i := range dims {
			if !yield(i, dims[i]) {
				return
			}
		}
	}
}

// ConfigDigest returns a stable cache key for one experiment execution:
// the hex SHA-256 of the spec key and every dimension of c, each framed
// with its name and a newline in table order, then the schedule's display
// label. Keying results by it is sound because every registered experiment
// is a pure function of its Config: equal Configs yield identical Results,
// bit for bit. The engine is a dimension because DES and analytic answers
// to one question must not share a cache slot. The schedule enters twice:
// its canonical pulses fully determine the injected failures, and figure
// titles embed its label (see failureNote), so schedules with equal pulses
// but different trace names must not share a slot either. The label, the
// one free-form field (ParseSchedule restricts it to name[:seed] forms),
// goes last, so no two Configs can collide by concatenation.
func ConfigDigest(specKey string, c Config) string {
	b := make([]byte, 0, 256)
	b = append(b, "spec="...)
	b = append(b, specKey...)
	for i := range dims {
		b = append(append(append(b, '\n'), dims[i].Name...), '=')
		b = dims[i].digest(b, c)
	}
	b = append(b, "\nschedule-label="...)
	b = append(b, c.Schedule.Label()...)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// ParseScale maps the request spelling of a scale onto a Scale: "paper",
// or "quick" and its alias "smoke", in any case.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "paper":
		return ScalePaper, nil
	case "quick", "smoke":
		return ScaleQuick, nil
	default:
		return 0, fmt.Errorf("unknown scale %q (want \"paper\", \"quick\" or \"smoke\")", s)
	}
}

// Axes holds a sweep's values per dimension, keyed by Dim.Name. Each value
// is a Config carrying that dimension's field; its other fields are
// ignored. A dimension without values sweeps only its zero value.
type Axes map[string][]Config

// Product calls fn with every point of the axes' cross product: the
// dimensions nest in table order, the last varying fastest.
func (a Axes) Product(fn func(Config)) {
	var c Config
	a.product(0, &c, fn)
}

func (a Axes) product(i int, c *Config, fn func(Config)) {
	if i == len(dims) {
		fn(*c)
		return
	}
	vals := a[dims[i].Name]
	if len(vals) == 0 {
		a.product(i+1, c, fn)
		return
	}
	for _, v := range vals {
		dims[i].set(c, v)
		a.product(i+1, c, fn)
	}
}

// JobName names a job: prefix, then a "/part" for every dimension of c
// off its default, in table order ("Fig8b/quick/seed=3/fail@2").
func JobName(prefix string, c Config) string {
	b := make([]byte, 0, 64)
	b = append(b, prefix...)
	for i := range dims {
		b = dims[i].name(b, c)
	}
	return string(b)
}

// Echo is how a report row states the Config its job ran: one field per
// dimension under its Dim.Report key, in table order. Scale and seed are
// always present; every other field is omitted at its default, so
// reports predating a dimension stay byte-identical.
type Echo struct {
	Scale       string `json:"scale"`
	Seed        int64  `json:"seed"`
	FailureAt   int    `json:"failure_at,omitempty"`
	Schedule    string `json:"schedule,omitempty"` // canonical pulses
	Nodes       int    `json:"nodes,omitempty"`
	Tenants     int    `json:"tenants,omitempty"`
	Speculation bool   `json:"speculation,omitempty"`
	Engine      string `json:"engine,omitempty"` // empty for the DES
}

// Echo returns the report fields that state c.
func (c Config) Echo() Echo {
	e := Echo{
		Scale:       c.Scale.String(),
		Seed:        c.Seed,
		FailureAt:   c.FailureAt,
		Schedule:    c.Schedule.String(),
		Nodes:       c.Nodes,
		Tenants:     c.Tenants,
		Speculation: c.Speculation,
	}
	if c.Engine != EngineDES {
		e.Engine = c.Engine.String()
	}
	return e
}
