package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
)

// Spec is BENCHMARK.json: how to run the benchmark, its workloads, and
// its metrics with units, directions and regression bounds.
type Spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []SpecWorkload `json:"workloads"`
	EndToEnd   []SpecMetric   `json:"end_to_end"`
	PerLayer   []SpecMetric   `json:"per_layer"`
}

// SpecWorkload names a workload and says why it exists.
type SpecWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// SpecMetric declares a metric. Bound, end-to-end metrics only, is the
// share of the baseline median by which the metric may worsen before a
// change counts as a regression.
type SpecMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// LoadSpec reads and validates a BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &s, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_.\-/]{1,200}$`)
)

// maxBound is the largest regression bound a metric may declare.
const maxBound = 0.25

// Validate checks the file's shape limits: counts, names, units,
// directions and bounds.
func (s *Spec) Validate() error {
	if n := len(s.Command); n < 1 || n > 32 {
		return fmt.Errorf("command has %d entries, want 1-32", n)
	}
	for _, c := range s.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			return fmt.Errorf("command entry %q is too long, absolute or leaves the repository", c)
		}
	}
	if n := len(s.Paths); n < 1 || n > 16 {
		return fmt.Errorf("paths has %d entries, want 1-16", n)
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			return fmt.Errorf("path %q is not a relative path inside the repository", p)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1-60", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2-8", n)
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1-128", n)
	}
	hasSetup := false
	for i, m := range append(append([]SpecMetric(nil), s.EndToEnd...), s.PerLayer...) {
		if err := use(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "higher" && m.Better != "lower" {
			return fmt.Errorf("metric %s: better must be higher or lower, got %q", m.Name, m.Better)
		}
		endToEnd := i < len(s.EndToEnd)
		switch {
		case endToEnd && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > maxBound):
			return fmt.Errorf("metric %s: end-to-end bound must be in (0, %v]", m.Name, maxBound)
		case !endToEnd && m.Bound != nil:
			return fmt.Errorf("metric %s: per-layer metrics carry no bound", m.Name)
		}
		if endToEnd && m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		return fmt.Errorf("end-to-end metrics need setup_s in s, lower is better")
	}
	return nil
}

// Metrics returns the declared metric names of one pass: end-to-end for
// an untraced run, per-layer for a traced one.
func (s *Spec) Metrics(traced bool) []SpecMetric {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// metric finds a declared metric by name and reports whether it is an
// end-to-end metric.
func (s *Spec) metric(name string) (SpecMetric, bool, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true, true
		}
	}
	for _, m := range s.PerLayer {
		if m.Name == name {
			return m, false, true
		}
	}
	return SpecMetric{}, false, false
}
