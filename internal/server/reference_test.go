package server

import (
	"encoding/json"
	"fmt"
	"strings"

	"rcmp/internal/experiments"
	"rcmp/internal/runner"
)

// decodeSweepRef is the reference the one-pass decodeSweep is held to:
// the two-pass decoder it replaced, which unmarshalled the body into
// SweepRequest to type-check it and again into a key map, and parsed each
// dimension's raw values through its row. It differs from decodeSweep only
// on bodies with keys that collide without regard to case, where it picked
// a key in map order (TestCaseCollidingKeysDecodeOneGrid).
func decodeSweepRef(body []byte) (runner.Grid, error) {
	var req SweepRequest
	var keys map[string]json.RawMessage
	err := json.Unmarshal(body, &req)
	if err == nil {
		err = json.Unmarshal(body, &keys)
	}
	if err != nil {
		return runner.Grid{}, fmt.Errorf("bad request body: %v", err)
	}
	if len(req.Specs) == 0 {
		return runner.Grid{}, fmt.Errorf("specs is required (registry keys or \"all\")")
	}
	g := runner.Grid{Axes: experiments.Axes{}, SeedSet: req.SeedSet}
	for _, key := range req.Specs {
		k := strings.ToLower(strings.TrimSpace(key))
		if k == "all" {
			g.Specs = experiments.Registry()
			break
		}
		sp, ok := experiments.Lookup(strings.TrimPrefix(k, "fig"))
		if !ok {
			return runner.Grid{}, fmt.Errorf("unknown spec %q (see /v1/experiments)", key)
		}
		g.Specs = append(g.Specs, sp)
	}
	for _, d := range experiments.Dims() {
		vals, err := decodeAxisRef(d, bodyKeyRef(keys, d.JSON))
		if err != nil {
			return runner.Grid{}, err
		}
		g.Axes[d.Name] = vals
	}
	return g, g.Validate()
}

// bodyKeyRef returns the body's value for key, matched as encoding/json
// matches a struct field: exactly, else case-insensitively.
func bodyKeyRef(keys map[string]json.RawMessage, key string) json.RawMessage {
	if v, ok := keys[key]; ok {
		return v
	}
	for k, v := range keys {
		if strings.EqualFold(k, key) {
			return v
		}
	}
	return nil
}

// decodeAxisRef parses one dimension's request value: a list of values,
// or a single one (scale, where "" is none). A null list element is the
// zero value, as typed decoding makes it.
func decodeAxisRef(d experiments.Dim, raw json.RawMessage) ([]experiments.Config, error) {
	elems := []json.RawMessage{raw}
	if s := string(raw); s == "" || s == `""` {
		return nil, nil
	} else if raw[0] == '[' || s == "null" {
		if err := json.Unmarshal(raw, &elems); err != nil {
			return nil, err
		}
	}
	vals := make([]experiments.Config, len(elems))
	for i, e := range elems {
		s := string(e)
		if s == "null" {
			continue
		}
		if e[0] == '"' {
			if err := json.Unmarshal(e, &s); err != nil {
				return nil, err
			}
		}
		var err error
		if vals[i], err = d.Parse(s); err != nil {
			return nil, err
		}
	}
	return vals, nil
}
