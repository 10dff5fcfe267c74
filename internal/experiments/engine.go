package experiments

import "fmt"

// Engine selects how an experiment's simulated runs are executed: by the
// discrete-event simulator (the default, and the source of every golden
// digest) or by the closed-form analytic twin, which answers
// the same questions with no event loop and therefore sweeps cluster
// sizes the DES refuses.
type Engine int

const (
	// EngineDES runs the discrete-event simulator.
	EngineDES Engine = iota
	// EngineAnalytic runs the closed-form analytic model
	// (internal/analytic), held to a per-spec tolerance band of the DES;
	// see docs/perf.md for the methodology.
	EngineAnalytic
)

func (e Engine) String() string {
	switch e {
	case EngineDES:
		return "des"
	case EngineAnalytic:
		return "analytic"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// ParseEngine maps the CLI/HTTP spelling onto an Engine. The empty string
// is the DES, so absent flags and fields keep their historical meaning.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "des":
		return EngineDES, nil
	case "analytic":
		return EngineAnalytic, nil
	default:
		return 0, fmt.Errorf("experiments: unknown engine %q (want des or analytic)", s)
	}
}
